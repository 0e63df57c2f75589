//! Reproductions of every table and figure in the paper's evaluation (§V).
//!
//! Each function runs the experiment and returns structured rows; `print_*`
//! helpers render them side-by-side with the paper's published numbers, so
//! EXPERIMENTS.md can record paper-vs-measured at a glance.

use crate::context::ReproContext;
use baselines::{LlmBaseline, PlmTranslator, Strategy, ALL_PLM};
use eval::{evaluate, EvalReport, Translator};
use llm::{CHATGPT, GPT4};
use purple::{Growth, PurpleConfig, SelectionConfig};
use spidergen::split_stats;

/// One EM/EX/TS row with the paper's published values for comparison.
#[derive(Debug, Clone)]
pub struct Row {
    /// System name.
    pub system: String,
    /// Measured EM%.
    pub em: f64,
    /// Measured EX%.
    pub ex: f64,
    /// Measured TS% (0 when not computed).
    pub ts: f64,
    /// Paper's (EM, EX, TS); 0 entries mean "not reported".
    pub paper: (f64, f64, f64),
}

fn row(report: &EvalReport, paper: (f64, f64, f64)) -> Row {
    Row {
        system: report.system.clone(),
        em: report.overall.em_pct(),
        ex: report.overall.ex_pct(),
        ts: report.overall.ts_pct(),
        paper,
    }
}

/// Build a baseline translator by strategy/profile, executing through the
/// context's shared session.
fn baseline(ctx: &ReproContext, s: Strategy, profile: llm::LlmProfile) -> LlmBaseline {
    LlmBaseline::new(
        s,
        profile,
        baselines::SharedModels {
            classifier: ctx.models.classifier.clone(),
            predictor: ctx.models.predictor.clone(),
            pool: ctx.models.pool.clone(),
        },
    )
    .with_env(ctx.env())
}

/// PURPLE on a profile with the default configuration, executing through the
/// context's shared session (`with_config` drops the attached environment).
fn purple_with(ctx: &ReproContext, profile: llm::LlmProfile) -> purple::Purple {
    ctx.purple.with_config(PurpleConfig::default_with(profile)).with_env(ctx.env())
}

// ---------------------------------------------------------------------------
// Table 4 (and its Table 1 subset)
// ---------------------------------------------------------------------------

/// Paper numbers for Table 4 (EM, EX, TS).
pub const TABLE4_PAPER: &[(&str, (f64, f64, f64))] = &[
    ("PICARD", (75.5, 79.3, 69.4)),
    ("RASAT", (75.3, 80.5, 70.3)),
    ("RESDSQL", (80.5, 84.1, 73.5)),
    ("Graphix-T5", (77.1, 81.0, 74.9)),
    ("ChatGPT-SQL (ChatGPT)", (37.9, 70.1, 60.1)),
    ("C3 (ChatGPT)", (43.1, 81.8, 72.1)),
    ("Zero-shot (GPT4)", (42.4, 72.9, 64.9)),
    ("Few-shot (GPT4)", (54.3, 76.8, 67.4)),
    ("DIN-SQL (GPT4)", (60.1, 82.8, 74.2)),
    ("DAIL-SQL (GPT4)", (68.7, 83.6, 76.2)),
    ("PURPLE (ChatGPT)", (76.1, 84.8, 80.1)),
    ("PURPLE (GPT4)", (80.5, 87.8, 83.3)),
];

/// Run Table 4: every system on the dev split with EM/EX/TS.
pub fn table4(ctx: &mut ReproContext) -> Vec<Row> {
    // Ensure suites exist before parallel evaluation borrows ctx immutably.
    ctx.dev_suites();
    let suites = ctx.dev_suites.clone().expect("built above");
    let dev = &ctx.suite.dev;

    let mut systems: Vec<Box<dyn Translator + Sync>> = Vec::new();
    for cfg in ALL_PLM {
        systems.push(Box::new(PlmTranslator::new(cfg, ctx.models.predictor.clone())));
    }
    systems.push(Box::new(baseline(ctx, Strategy::ChatGptSql, CHATGPT)));
    systems.push(Box::new(baseline(ctx, Strategy::C3, CHATGPT)));
    systems.push(Box::new(baseline(ctx, Strategy::ZeroShot, GPT4)));
    systems.push(Box::new(baseline(ctx, Strategy::FewShot, GPT4)));
    systems.push(Box::new(baseline(ctx, Strategy::DinSql, GPT4)));
    systems.push(Box::new(baseline(ctx, Strategy::DailSql, GPT4)));
    systems.push(Box::new(purple_with(ctx, CHATGPT)));
    systems.push(Box::new(purple_with(ctx, GPT4)));

    let reports: Vec<EvalReport> = systems
        .iter()
        .map(|sys| evaluate(sys.as_ref(), dev, Some(&suites), ctx.jobs, &ctx.session))
        .collect();

    reports.iter().enumerate().map(|(i, r)| row(r, TABLE4_PAPER[i].1)).collect()
}

/// Table 1 is the LLM-strategy subset of Table 4 (EM/EX only).
pub fn table1(rows: &[Row]) -> Vec<Row> {
    rows.iter()
        .filter(|r| {
            r.system.starts_with("ChatGPT-SQL")
                || r.system.starts_with("C3")
                || r.system.starts_with("DIN-SQL")
                || r.system.starts_with("DAIL-SQL")
        })
        .cloned()
        .collect()
}

// ---------------------------------------------------------------------------
// Figure 9: per-hardness EM/EX
// ---------------------------------------------------------------------------

/// One system's per-hardness breakdown.
#[derive(Debug, Clone)]
pub struct HardnessRow {
    /// System name.
    pub system: String,
    /// (EM%, EX%) per hardness level easy..extra.
    pub by_hardness: [(f64, f64); 4],
    /// Examples per bucket.
    pub counts: [usize; 4],
}

/// Fig. 9 systems: C3(3.5), DIN(4), DAIL(4), PURPLE(3.5), PURPLE(4).
pub fn fig9(ctx: &ReproContext) -> Vec<HardnessRow> {
    let dev = &ctx.suite.dev;
    let systems: Vec<Box<dyn Translator + Sync>> = vec![
        Box::new(baseline(ctx, Strategy::ChatGptSql, CHATGPT)),
        Box::new(baseline(ctx, Strategy::C3, CHATGPT)),
        Box::new(baseline(ctx, Strategy::DinSql, GPT4)),
        Box::new(baseline(ctx, Strategy::DailSql, GPT4)),
        Box::new(purple_with(ctx, CHATGPT)),
        Box::new(purple_with(ctx, GPT4)),
    ];
    let reports: Vec<EvalReport> = systems
        .iter()
        .map(|sys| evaluate(sys.as_ref(), dev, None, ctx.jobs, &ctx.session))
        .collect();
    reports
        .into_iter()
        .map(|r| HardnessRow {
            system: r.system.clone(),
            by_hardness: [
                (r.by_hardness[0].em_pct(), r.by_hardness[0].ex_pct()),
                (r.by_hardness[1].em_pct(), r.by_hardness[1].ex_pct()),
                (r.by_hardness[2].em_pct(), r.by_hardness[2].ex_pct()),
                (r.by_hardness[3].em_pct(), r.by_hardness[3].ex_pct()),
            ],
            counts: [
                r.by_hardness[0].n,
                r.by_hardness[1].n,
                r.by_hardness[2].n,
                r.by_hardness[3].n,
            ],
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figure 10: generalization to DK / SYN / Realistic
// ---------------------------------------------------------------------------

/// One (system, split) cell of Fig. 10.
#[derive(Debug, Clone)]
pub struct VariantRow {
    /// System name.
    pub system: String,
    /// Split name.
    pub split: String,
    /// Measured EM%.
    pub em: f64,
    /// Measured EX%.
    pub ex: f64,
    /// Paper (EM, EX).
    pub paper: (f64, f64),
}

/// Paper numbers for Fig. 10 (EM, EX) per (system, split).
pub const FIG10_PAPER: &[(&str, &str, (f64, f64))] = &[
    ("ChatGPT-SQL (ChatGPT)", "dk", (30.7, 62.6)),
    ("ChatGPT-SQL (ChatGPT)", "syn", (48.5, 58.6)),
    ("ChatGPT-SQL (ChatGPT)", "realistic", (40.4, 63.4)),
    ("C3 (ChatGPT)", "dk", (38.7, 71.2)),
    ("C3 (ChatGPT)", "syn", (40.9, 68.4)),
    ("C3 (ChatGPT)", "realistic", (41.9, 73.8)),
    ("PURPLE (ChatGPT)", "dk", (61.7, 75.3)),
    ("PURPLE (ChatGPT)", "syn", (63.3, 74.0)),
    ("PURPLE (ChatGPT)", "realistic", (71.1, 79.9)),
];

/// Run Fig. 10.
pub fn fig10(ctx: &ReproContext) -> Vec<VariantRow> {
    let mut out = Vec::new();
    let splits = [&ctx.suite.dk, &ctx.suite.syn, &ctx.suite.realistic];
    for (mk, name) in
        [(Strategy::ChatGptSql, "ChatGPT-SQL (ChatGPT)"), (Strategy::C3, "C3 (ChatGPT)")]
    {
        for split in splits {
            let t = baseline(ctx, mk, CHATGPT);
            let r = evaluate(&t, split, None, ctx.jobs, &ctx.session);
            out.push(VariantRow {
                system: name.to_string(),
                split: split.name.clone(),
                em: r.overall.em_pct(),
                ex: r.overall.ex_pct(),
                paper: paper_fig10(name, &split.name),
            });
        }
    }
    for split in splits {
        let t = purple_with(ctx, CHATGPT);
        let r = evaluate(&t, split, None, ctx.jobs, &ctx.session);
        out.push(VariantRow {
            system: "PURPLE (ChatGPT)".to_string(),
            split: split.name.clone(),
            em: r.overall.em_pct(),
            ex: r.overall.ex_pct(),
            paper: paper_fig10("PURPLE (ChatGPT)", &split.name),
        });
    }
    out
}

fn paper_fig10(system: &str, split: &str) -> (f64, f64) {
    FIG10_PAPER
        .iter()
        .find(|(s, sp, _)| *s == system && *sp == split)
        .map(|(_, _, p)| *p)
        .unwrap_or((0.0, 0.0))
}

// ---------------------------------------------------------------------------
// Figure 11: budget sweep
// ---------------------------------------------------------------------------

/// One cell of the Fig. 11 budget grid.
#[derive(Debug, Clone)]
pub struct BudgetCell {
    /// Prompt-length budget.
    pub len: u64,
    /// Consistency number.
    pub num: usize,
    /// Whether the configuration fits the 4,096-token context (paper's N/A cells).
    pub available: bool,
    /// Measured EM%.
    pub em: f64,
    /// Measured EX%.
    pub ex: f64,
    /// Average total tokens per query (prompt + output).
    pub tokens: f64,
}

/// Estimated per-sample completion tokens used for the N/A rule.
const EST_SAMPLE_TOKENS: u64 = 26;

/// Run the Fig. 11 grid: len ∈ {512, 1024, 2048, 3072} × num ∈ {1, 10, 20, 30, 40}.
pub fn fig11(ctx: &ReproContext) -> Vec<BudgetCell> {
    let lens = [512u64, 1024, 2048, 3072];
    let nums = [1usize, 10, 20, 30, 40];
    let dev = &ctx.suite.dev;
    let cells: Vec<(u64, usize)> =
        lens.iter().flat_map(|l| nums.iter().map(move |n| (*l, *n))).collect();
    cells
        .into_iter()
        .map(|(len, num)| {
            // A single API call must fit prompt + all sampled completions.
            let available = len + num as u64 * EST_SAMPLE_TOKENS <= llm::CONTEXT_LIMIT;
            if !available {
                return BudgetCell { len, num, available, em: 0.0, ex: 0.0, tokens: 0.0 };
            }
            let mut cfg = PurpleConfig::default_with(CHATGPT);
            cfg.len_budget = len;
            cfg.num_consistency = num;
            let p = ctx.purple.with_config(cfg).with_env(ctx.env());
            let r = evaluate(&p, dev, None, ctx.jobs, &ctx.session);
            BudgetCell {
                len,
                num,
                available,
                em: r.overall.em_pct(),
                ex: r.overall.ex_pct(),
                tokens: r.avg_prompt_tokens + r.avg_output_tokens,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figure 12: selection robustness
// ---------------------------------------------------------------------------

/// One robustness configuration result.
#[derive(Debug, Clone)]
pub struct RobustRow {
    /// Configuration label ("p0=2 Linear-1", "mask=2 Drop-0.5", ...).
    pub label: String,
    /// Measured EM%.
    pub em: f64,
    /// Measured EX%.
    pub ex: f64,
}

/// Fig. 12 left: hyper-parameter variants of Algorithm 1.
pub fn fig12_left(ctx: &ReproContext) -> Vec<RobustRow> {
    let dev = &ctx.suite.dev;
    let variants: Vec<(String, SelectionConfig)> = vec![
        (
            "p0=1 Linear-1".into(),
            SelectionConfig { p0: 1, growth: Growth::Linear(1), ..Default::default() },
        ),
        (
            "p0=2 Linear-1".into(),
            SelectionConfig { p0: 2, growth: Growth::Linear(1), ..Default::default() },
        ),
        (
            "p0=3 Linear-1".into(),
            SelectionConfig { p0: 3, growth: Growth::Linear(1), ..Default::default() },
        ),
        (
            "p0=1 Linear-2".into(),
            SelectionConfig { p0: 1, growth: Growth::Linear(2), ..Default::default() },
        ),
        (
            "p0=1 Linear-3".into(),
            SelectionConfig { p0: 1, growth: Growth::Linear(3), ..Default::default() },
        ),
        (
            "p0=1 Exp-2".into(),
            SelectionConfig { p0: 1, growth: Growth::Exp(2), ..Default::default() },
        ),
    ];
    run_selection_variants(ctx, dev, variants)
}

/// Fig. 12 right: skeleton-noise injection (masking levels × prediction drops).
pub fn fig12_right(ctx: &ReproContext) -> Vec<RobustRow> {
    let dev = &ctx.suite.dev;
    let mut variants = Vec::new();
    for mask in 0..=3usize {
        for drop in [0.0, 0.5, 1.0] {
            variants.push((
                format!("mask={mask} Drop-{drop}"),
                SelectionConfig { masking_number: mask, drop_prob: drop, ..Default::default() },
            ));
        }
    }
    run_selection_variants(ctx, dev, variants)
}

fn run_selection_variants(
    ctx: &ReproContext,
    dev: &spidergen::Benchmark,
    variants: Vec<(String, SelectionConfig)>,
) -> Vec<RobustRow> {
    variants
        .into_iter()
        .map(|(label, sel)| {
            let mut cfg = PurpleConfig::default_with(CHATGPT);
            cfg.selection = sel;
            let p = ctx.purple.with_config(cfg).with_env(ctx.env());
            let r = evaluate(&p, dev, None, ctx.jobs, &ctx.session);
            RobustRow { label, em: r.overall.em_pct(), ex: r.overall.ex_pct() }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Table 5: ChatGPT vs GPT4 sensitivity
// ---------------------------------------------------------------------------

/// Paper numbers for Table 5 (EM, EX) per (system, model).
pub const TABLE5_PAPER: &[(&str, f64, f64)] = &[
    ("DIN-SQL (GPT4)", 60.1, 82.8),
    ("DIN-SQL (ChatGPT)", 43.0, 75.5),
    ("C3 (GPT4)", 50.7, 82.1),
    ("C3 (ChatGPT)", 43.1, 81.8),
    ("DAIL-SQL (GPT4)", 68.7, 83.6),
    ("DAIL-SQL (ChatGPT)", 65.1, 81.3),
    ("PURPLE (GPT4)", 80.5, 87.8),
    ("PURPLE (ChatGPT)", 76.1, 84.8),
];

/// Run Table 5.
pub fn table5(ctx: &ReproContext) -> Vec<Row> {
    let dev = &ctx.suite.dev;
    let systems: Vec<Box<dyn Translator + Sync>> = vec![
        Box::new(baseline(ctx, Strategy::DinSql, GPT4)),
        Box::new(baseline(ctx, Strategy::DinSql, CHATGPT)),
        Box::new(baseline(ctx, Strategy::C3, GPT4)),
        Box::new(baseline(ctx, Strategy::C3, CHATGPT)),
        Box::new(baseline(ctx, Strategy::DailSql, GPT4)),
        Box::new(baseline(ctx, Strategy::DailSql, CHATGPT)),
        Box::new(purple_with(ctx, GPT4)),
        Box::new(purple_with(ctx, CHATGPT)),
    ];
    let reports: Vec<EvalReport> = systems
        .iter()
        .map(|sys| evaluate(sys.as_ref(), dev, None, ctx.jobs, &ctx.session))
        .collect();
    reports
        .iter()
        .enumerate()
        .map(|(i, r)| row(r, (TABLE5_PAPER[i].1, TABLE5_PAPER[i].2, 0.0)))
        .collect()
}

// ---------------------------------------------------------------------------
// Table 6: ablation study
// ---------------------------------------------------------------------------

/// Paper numbers for Table 6 (EM, EX).
pub const TABLE6_PAPER: &[(&str, f64, f64)] = &[
    ("PURPLE (ChatGPT)", 76.1, 84.8),
    ("-Schema Pruning", 71.2, 83.4),
    ("-Steiner Tree", 75.0, 84.4),
    ("-Demonstration Selection", 59.1, 81.6),
    ("-Database Adaption", 74.7, 81.8),
    ("+Oracle Skeleton", 78.8, 86.8),
];

/// Run the ablations of Table 6.
pub fn table6(ctx: &ReproContext) -> Vec<Row> {
    let dev = &ctx.suite.dev;
    let base = PurpleConfig::default_with(CHATGPT);
    let variants: Vec<(&str, PurpleConfig)> = vec![
        ("PURPLE (ChatGPT)", base.clone()),
        ("-Schema Pruning", {
            let mut c = base.clone();
            c.use_pruning = false;
            c
        }),
        ("-Steiner Tree", {
            let mut c = base.clone();
            c.prune.steiner = false;
            c
        }),
        ("-Demonstration Selection", {
            let mut c = base.clone();
            c.use_selection = false;
            c
        }),
        ("-Database Adaption", {
            let mut c = base.clone();
            c.use_adaption = false;
            c
        }),
        ("+Oracle Skeleton", {
            let mut c = base.clone();
            c.oracle_skeleton = true;
            c
        }),
    ];
    let reports: Vec<(String, EvalReport)> = variants
        .into_iter()
        .map(|(label, cfg)| {
            let p = ctx.purple.with_config(cfg).with_env(ctx.env());
            (label.to_string(), evaluate(&p, dev, None, ctx.jobs, &ctx.session))
        })
        .collect();
    reports
        .iter()
        .enumerate()
        .map(|(i, (label, r))| Row {
            system: label.clone(),
            em: r.overall.em_pct(),
            ex: r.overall.ex_pct(),
            ts: 0.0,
            paper: (TABLE6_PAPER[i].1, TABLE6_PAPER[i].2, 0.0),
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Table 3: benchmark statistics; §IV-C3 automaton ratio
// ---------------------------------------------------------------------------

/// Run Table 3: split statistics.
pub fn table3(ctx: &ReproContext) -> Vec<spidergen::SplitStats> {
    [&ctx.suite.train, &ctx.suite.dev, &ctx.suite.dk, &ctx.suite.realistic, &ctx.suite.syn]
        .iter()
        .map(|b| split_stats(b))
        .collect()
}

/// The automaton end-state distribution (paper: 912:708:363:59 on Spider train).
pub fn automaton_stats(ctx: &ReproContext) -> [usize; 4] {
    ctx.purple.automata().end_state_ratio()
}

// ---------------------------------------------------------------------------
// Table 2: hallucination catalogue demo
// ---------------------------------------------------------------------------

/// One demonstrated error-category repair.
#[derive(Debug, Clone)]
pub struct AdaptionDemo {
    /// Category label.
    pub category: String,
    /// The broken SQL.
    pub broken: String,
    /// Engine error message.
    pub error: String,
    /// The repaired SQL.
    pub fixed: String,
    /// Whether the repair executes.
    pub executable: bool,
}

/// Demonstrate each of the six error categories on real dev examples: inject the
/// hallucination into gold SQL, then let the adaption module repair it.
pub fn table2(ctx: &ReproContext) -> Vec<AdaptionDemo> {
    use llm::writer;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut out: Vec<AdaptionDemo> = Vec::new();
    let mut rng = StdRng::seed_from_u64(2024);
    type Injector = fn(&mut sqlkit::Query, &engine::Database, &mut StdRng) -> Option<&'static str>;
    let injectors: Vec<(&str, Injector)> = vec![
        ("table-column-mismatch", writer::inject_wrong_qualifier),
        ("column-ambiguity", writer::inject_ambiguity),
        ("missing-table", writer::inject_missing_table),
        ("function-hallucination", writer::inject_function_halluc),
        ("schema-hallucination", writer::inject_schema_col),
        ("aggregation-hallucination", writer::inject_agg_multi),
    ];
    for (label, inject) in injectors {
        let mut found = false;
        'search: for ex in &ctx.suite.dev.examples {
            let db = ctx.suite.dev.db_of(ex);
            let mut q = ex.query.clone();
            if inject(&mut q, db, &mut rng).is_some() {
                let broken = q.to_string();
                let Err(e) = ctx.session.bind(db).execute(&q) else {
                    continue;
                };
                let fixed = ctx.purple.adapt(&broken, db, 7);
                out.push(AdaptionDemo {
                    category: label.to_string(),
                    broken,
                    error: e.to_string(),
                    fixed: fixed.sql,
                    executable: fixed.executable,
                });
                found = true;
                break 'search;
            }
        }
        if !found {
            // The sampled dev split may lack a query shape this injector applies
            // to; craft a canonical one on the first database instead.
            if let Some(demo) = crafted_demo(ctx, label, inject, &mut rng) {
                out.push(demo);
            }
        }
    }
    out
}

/// Build a canonical query shape for an injector on the first dev database:
/// `SELECT COUNT(DISTINCT <text col>) FROM <table>` covers the aggregate case,
/// a single-column select covers the rest.
fn crafted_demo(
    ctx: &ReproContext,
    label: &str,
    inject: fn(
        &mut sqlkit::Query,
        &engine::Database,
        &mut rand::rngs::StdRng,
    ) -> Option<&'static str>,
    rng: &mut rand::rngs::StdRng,
) -> Option<AdaptionDemo> {
    let db = ctx.suite.dev.databases.first()?;
    for (ti, table) in db.schema.tables.iter().enumerate() {
        for (ci, col) in table.columns.iter().enumerate() {
            if db.schema.tables[ti].primary_key == Some(ci) {
                continue;
            }
            let sql = format!("SELECT COUNT(DISTINCT {}) FROM {}", col.name, table.name);
            let Ok(mut q) = sqlkit::parse(&sql) else {
                continue;
            };
            if inject(&mut q, db, rng).is_some() {
                let broken = q.to_string();
                let Err(e) = ctx.session.bind(db).execute(&q) else {
                    continue;
                };
                let fixed = ctx.purple.adapt(&broken, db, 7);
                return Some(AdaptionDemo {
                    category: label.to_string(),
                    broken,
                    error: e.to_string(),
                    fixed: fixed.sql,
                    executable: fixed.executable,
                });
            }
        }
    }
    None
}

// ---------------------------------------------------------------------------
// Diagnostics: demonstration support-level distribution per strategy
// ---------------------------------------------------------------------------

/// For each dev example, the finest abstraction level at which a strategy's
/// selected demonstrations match the required skeleton. Indices 0..3 = Detail..
/// Clause; index 4 = no support. Used for calibration diagnostics.
pub fn support_stats(ctx: &ReproContext) -> Vec<(String, [usize; 5])> {
    use llm::LlmService;
    use sqlkit::Skeleton;
    let dev = &ctx.suite.dev;
    let pool = &ctx.models.pool;

    let mut purple_hist = [0usize; 5];
    let mut dail_hist = [0usize; 5];
    let mut random_hist = [0usize; 5];

    // Re-derive the selections the strategies would make.
    let automata = ctx.purple.automata();
    let predictor = &ctx.models.predictor;
    let dail = baseline(ctx, Strategy::DailSql, GPT4);
    let mut rng = rand::SeedableRng::seed_from_u64(77);
    for ex in &dev.examples {
        let db = dev.db_of(ex);
        let required = Skeleton::from_query(&ex.query);
        // PURPLE: Algorithm 1 + random fill to 24.
        let preds = predictor.predict(&ex.nl, db, 3);
        let mut sel = purple::select_demonstrations(
            automata,
            &preds,
            &purple::SelectionConfig::default(),
            pool.len(),
            &mut rng,
        );
        purple::random_fill(&mut sel, pool.len(), 24, &mut rng);
        sel.truncate(24);
        let skels: Vec<&Skeleton> = sel.iter().map(|i| pool[*i].skeleton()).collect();
        bump(&mut purple_hist, LlmService::support_level(&required, &skels));

        // DAIL: the baseline's own keyword/NL Jaccard ranking.
        let dail_sel = dail.dail_select(ex, db, 16);
        let skels: Vec<&Skeleton> = dail_sel.iter().map(|i| pool[*i].skeleton()).collect();
        bump(&mut dail_hist, LlmService::support_level(&required, &skels));

        // Random 24.
        let mut r: Vec<usize> = Vec::new();
        purple::random_fill(&mut r, pool.len(), 24, &mut rng);
        let skels: Vec<&Skeleton> = r.iter().map(|i| pool[*i].skeleton()).collect();
        bump(&mut random_hist, LlmService::support_level(&required, &skels));
    }
    vec![
        ("PURPLE".into(), purple_hist),
        ("DAIL-SQL".into(), dail_hist),
        ("random-24".into(), random_hist),
    ]
}

fn bump(hist: &mut [usize; 5], level: Option<sqlkit::Level>) {
    match level {
        Some(l) => hist[l.index()] += 1,
        None => hist[4] += 1,
    }
}

/// Diagnostic: how often does a near-miss rewrite preserve execution results?
/// Reported per family (equivalent-picked vs corrupting-picked). Drives the
/// calibration of the EX−EM gap (Table 1's signature).
pub fn rewrite_stats(ctx: &ReproContext) -> (f64, f64, f64) {
    use llm::rewrites::{corrupting_rewrites, equivalent_rewrites, near_miss};
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(13);
    let mut eq_pick = 0usize;
    let mut preserved = 0usize;
    let mut total = 0usize;
    for ex in &ctx.suite.dev.examples {
        let db = ctx.suite.dev.db_of(ex);
        let sdb = ctx.session.bind(db);
        let Ok(gold_rs) = sdb.execute(&ex.query) else {
            continue;
        };
        for _ in 0..8 {
            let Some(m) = near_miss(&ex.query, &sdb, 0.72, &mut rng) else {
                continue;
            };
            total += 1;
            let eq = equivalent_rewrites(&ex.query).contains(&m)
                || !corrupting_rewrites(&ex.query).contains(&m);
            if eq {
                eq_pick += 1;
            }
            if let Ok(rs) = sdb.execute(&m) {
                if rs.same_result(&gold_rs, engine::order_matters(&ex.query)) {
                    preserved += 1;
                }
            }
        }
    }
    let t = total.max(1) as f64;
    (eq_pick as f64 / t, preserved as f64 / t, total as f64)
}

// ---------------------------------------------------------------------------
// Extension (beyond the paper): generation-based prompting (§VII future work)
// ---------------------------------------------------------------------------

/// Compare demonstration sourcing: retrieval (the paper's PURPLE), pure skeleton-
/// conditioned generation, and the hybrid. Returns (label, EM%, EX%) rows.
pub fn extension_generation(ctx: &ReproContext) -> Vec<RobustRow> {
    use purple::DemoMode;
    let dev = &ctx.suite.dev;
    let variants = [
        ("retrieval (paper)", DemoMode::Retrieve),
        ("generation (§VII)", DemoMode::Generate),
        ("hybrid", DemoMode::Hybrid),
    ];
    variants
        .iter()
        .map(|(label, mode)| {
            let mut cfg = PurpleConfig::default_with(CHATGPT);
            cfg.demo_mode = *mode;
            let p = ctx.purple.with_config(cfg).with_env(ctx.env());
            let r = evaluate(&p, dev, None, ctx.jobs, &ctx.session);
            RobustRow { label: label.to_string(), em: r.overall.em_pct(), ex: r.overall.ex_pct() }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Extension: seed sweep (reproducibility evidence beyond the paper)
// ---------------------------------------------------------------------------

/// Re-run the headline PURPLE (ChatGPT) row across independently generated and
/// trained benchmark instances, reporting per-seed EM/EX. The paper reports a
/// single run; this quantifies the variance of the whole pipeline (generator +
/// training + simulation) under reseeding.
pub fn seed_sweep(scale: crate::context::Scale, seeds: &[u64]) -> Vec<(u64, f64, f64)> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = seeds
            .iter()
            .map(|seed| {
                let seed = *seed;
                scope.spawn(move || {
                    let ctx = crate::context::ReproContext::build(scale, seed);
                    let p = ctx
                        .purple
                        .with_config(PurpleConfig::default_with(CHATGPT))
                        .with_env(ctx.env());
                    let r = eval::evaluate(&p, &ctx.suite.dev, None, 1, &ctx.session);
                    (seed, r.overall.em_pct(), r.overall.ex_pct())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("thread")).collect()
    })
}

/// Mean and sample standard deviation of a series.
pub fn mean_std(xs: &[f64]) -> (f64, f64) {
    let n = xs.len().max(1) as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = if xs.len() > 1 {
        xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0)
    } else {
        0.0
    };
    (mean, var.sqrt())
}

// ---------------------------------------------------------------------------
// Diagnostics: model quality + failure-mode analysis
// ---------------------------------------------------------------------------

/// Sub-model quality on the dev split: classifier P/R/F1 at τp and skeleton
/// top-k recall — the §IV-A1/§IV-B quality numbers behind the pipeline.
pub fn model_stats(ctx: &ReproContext) -> String {
    let clf = nlmodel::classifier_report(&ctx.models.classifier, &ctx.suite.dev, 0.5);
    let r1 = nlmodel::skeleton_topk_recall(&ctx.models.predictor, &ctx.suite.dev, 1);
    let r3 = nlmodel::skeleton_topk_recall(&ctx.models.predictor, &ctx.suite.dev, 3);
    let r5 = nlmodel::skeleton_topk_recall(&ctx.models.predictor, &ctx.suite.dev, 5);
    format!(
        "Sub-model quality on dev (unseen domains)\n\
         ------------------------------------------\n\
         classifier tables  P {:.2} / R {:.2} / F1 {:.2}\n\
         classifier columns P {:.2} / R {:.2} / F1 {:.2}\n\
         skeleton recall    top-1 {:.1}%  top-3 {:.1}%  top-5 {:.1}%\n",
        clf.tables.precision(),
        clf.tables.recall(),
        clf.tables.f1(),
        clf.columns.precision(),
        clf.columns.recall(),
        clf.columns.f1(),
        r1 * 100.0,
        r3 * 100.0,
        r5 * 100.0
    )
}

/// Failure-mode breakdown for PURPLE vs the zero-shot baseline on dev: where the
/// misses go, in the paper's vocabulary (wrong composition vs linking vs values).
pub fn error_analysis(ctx: &ReproContext) -> Vec<(String, eval::ErrorReport)> {
    let dev = &ctx.suite.dev;
    let systems: Vec<Box<dyn Translator + Sync>> = vec![
        Box::new(baseline(ctx, Strategy::ChatGptSql, CHATGPT)),
        Box::new(purple_with(ctx, CHATGPT)),
    ];
    let session = ctx.session.as_ref();
    std::thread::scope(|scope| {
        let handles: Vec<_> = systems
            .iter()
            .map(|sys| {
                let sys = sys.as_ref();
                scope.spawn(move || {
                    let name = sys.name();
                    let mut report = eval::ErrorReport::default();
                    for (i, ex) in dev.examples.iter().enumerate() {
                        let db = dev.db_of(ex);
                        let t = sys.run(eval::Job::new(i, ex, db)).translation;
                        report.add(eval::classify(&session.bind(db), &t.sql, &ex.query));
                    }
                    (name, report)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("thread")).collect()
    })
}

// ---------------------------------------------------------------------------
// Cost report (§V-D): tokens and dollars per query, per strategy
// ---------------------------------------------------------------------------

/// One row of the cost report.
#[derive(Debug, Clone)]
pub struct CostRow {
    /// System name.
    pub system: String,
    /// Average billed tokens per query (prompt + output).
    pub tokens_per_query: f64,
    /// Estimated USD per query at 2023 list prices.
    pub usd_per_query: f64,
    /// Estimated USD for the whole dev split.
    pub usd_total: f64,
    /// EM% achieved at that spend.
    pub em: f64,
}

/// Measure token and dollar spend for the strategies the paper compares in §V-D.
pub fn cost_report(ctx: &ReproContext) -> Vec<CostRow> {
    let dev = &ctx.suite.dev;
    let configs: Vec<(&str, Strategy, llm::LlmProfile)> = vec![
        ("C3 (ChatGPT)", Strategy::C3, CHATGPT),
        ("DIN-SQL (GPT4)", Strategy::DinSql, GPT4),
        ("DAIL-SQL (GPT4)", Strategy::DailSql, GPT4),
    ];
    let mut out = Vec::new();
    for (name, strategy, profile) in configs {
        let ledger = llm::CostLedger::shared();
        let t = baseline(ctx, strategy, profile).with_env(ctx.env().with_ledger(ledger.clone()));
        let r = evaluate(&t, dev, None, ctx.jobs, &ctx.session);
        out.push(cost_row(name, ledger.totals(), &profile, dev.examples.len(), r.overall.em_pct()));
    }
    for profile in [CHATGPT, GPT4] {
        let ledger = llm::CostLedger::shared();
        let p = purple_with(ctx, profile).with_env(ctx.env().with_ledger(ledger.clone()));
        let r = evaluate(&p, dev, None, ctx.jobs, &ctx.session);
        out.push(cost_row(
            &format!("PURPLE ({})", profile.name),
            ledger.totals(),
            &profile,
            dev.examples.len(),
            r.overall.em_pct(),
        ));
    }
    out
}

fn cost_row(
    name: &str,
    totals: llm::Totals,
    profile: &llm::LlmProfile,
    n: usize,
    em: f64,
) -> CostRow {
    let usd = totals.cost_usd(profile);
    CostRow {
        system: name.to_string(),
        tokens_per_query: (totals.prompt_tokens + totals.output_tokens) as f64 / n.max(1) as f64,
        usd_per_query: usd / n.max(1) as f64,
        usd_total: usd,
        em,
    }
}

// ---------------------------------------------------------------------------
// Pipeline observability (DESIGN.md §8): instrumented PURPLE dev evaluation
// ---------------------------------------------------------------------------

/// Run PURPLE (ChatGPT) over the dev split with full stage instrumentation and
/// return the report, whose [`EvalReport::metrics`] aggregate is folded in
/// example order — byte-identical for any `ctx.jobs`. With `wall_clock`, spans
/// record real elapsed nanoseconds instead of deterministic work units (useful
/// for profiling, but no longer reproducible across runs or thread counts).
pub fn metrics_eval(ctx: &ReproContext, wall_clock: bool) -> EvalReport {
    let clock = if wall_clock { obs::Clock::Wall } else { obs::Clock::Virtual };
    let p = purple_with(ctx, CHATGPT).with_clock(clock);
    evaluate(&p, &ctx.suite.dev, None, ctx.jobs, &ctx.session)
}

// ---------------------------------------------------------------------------
// Failure attribution (DESIGN.md §9): per-module blame + structured events
// ---------------------------------------------------------------------------

/// Everything `repro --diagnose` produces in one pass.
#[derive(Debug, Clone)]
pub struct DiagnoseOutput {
    /// The evaluation report with [`EvalReport::attribution`] filled in.
    pub report: EvalReport,
    /// Rendered blame table (the `--diagnose PATH` payload).
    pub markdown: String,
    /// Structured trace events as JSONL (the `--events PATH` payload).
    pub events_jsonl: String,
}

/// Run PURPLE (ChatGPT) over the dev split with traces and structured events
/// on, attribute every EX-loss to a pipeline module, and serialize the event
/// stream. Verdicts are folded and events drained in example order, so both
/// outputs are byte-identical for any `ctx.jobs`.
pub fn diagnose(ctx: &ReproContext) -> DiagnoseOutput {
    let p = purple_with(ctx, CHATGPT);
    let dev = &ctx.suite.dev;
    let sink = obs::EventSink::bounded(dev.examples.len(), obs::DEFAULT_EVENTS_PER_EXAMPLE);
    let (mut report, verdicts) = eval::evaluate_with(
        eval::Translator::name(&p),
        dev,
        None,
        ctx.jobs,
        &ctx.session,
        |job: eval::Job<'_>| {
            let (ex, sdb) = (job.example, ctx.session.bind(job.db));
            let out = p.run(job.with_trace(true).with_events(Some(&sink)));
            let verdict = out.trace.as_ref().and_then(|t| t.blame(&ex.query, &sdb));
            (eval::RunOutcome { translation: out.translation, metrics: out.metrics }, verdict)
        },
    );
    let mut attribution = eval::AttributionReport::default();
    for v in &verdicts {
        attribution.add(v.as_ref());
    }
    let markdown = format!(
        "# Failure attribution: {} on dev\n\n{}",
        report.system,
        attribution.render_markdown()
    );
    report.attribution = Some(attribution);
    let drained = sink.drain();
    DiagnoseOutput { report, markdown, events_jsonl: obs::to_jsonl(&drained.events) }
}

// ---------------------------------------------------------------------------
// Run registry (DESIGN.md §11): full-fidelity archived evaluation
// ---------------------------------------------------------------------------

/// Run PURPLE on a profile over the dev split at full fidelity — EM/EX *and*
/// TS via the distilled suites, per-stage metrics, and per-module failure
/// attribution — producing the report `repro --archive` records. Verdicts fold
/// in example order, so the report is byte-identical for any `ctx.jobs`.
pub fn archive_eval(ctx: &mut ReproContext, profile: llm::LlmProfile) -> EvalReport {
    // Ensure suites exist before parallel evaluation borrows ctx immutably.
    ctx.dev_suites();
    let suites = ctx.dev_suites.clone().expect("built above");
    let p = purple_with(ctx, profile);
    let dev = &ctx.suite.dev;
    let (mut report, verdicts) = eval::evaluate_with(
        eval::Translator::name(&p),
        dev,
        Some(&suites),
        ctx.jobs,
        &ctx.session,
        |job: eval::Job<'_>| {
            let (ex, sdb) = (job.example, ctx.session.bind(job.db));
            let out = p.run(job.with_trace(true));
            let verdict = out.trace.as_ref().and_then(|t| t.blame(&ex.query, &sdb));
            (eval::RunOutcome { translation: out.translation, metrics: out.metrics }, verdict)
        },
    );
    let mut attribution = eval::AttributionReport::default();
    for v in &verdicts {
        attribution.add(v.as_ref());
    }
    report.attribution = Some(attribution);
    report
}

// ---------------------------------------------------------------------------
// NL→DML scenario family (DESIGN.md §15)
// ---------------------------------------------------------------------------

/// Scale-dependent DML split sizes: (databases, examples).
fn dml_sizes(scale: crate::context::Scale) -> (usize, usize) {
    match scale {
        crate::context::Scale::Tiny => (4, 60),
        crate::context::Scale::Medium => (8, 240),
        crate::context::Scale::Full => (12, 480),
    }
}

/// The statement-mix profile the `dml` scenario family runs under.
pub fn dml_profile() -> spidergen::QueryProfile {
    spidergen::QueryProfile::mixed_dml()
}

/// Generate the profile-driven `dml` split for a scale and seed. Standalone —
/// it does not need a [`ReproContext`] (no demonstration pool, no trained
/// models), so `repro --dml` skips the expensive suite build.
pub fn dml_bench(scale: crate::context::Scale, seed: u64) -> spidergen::WriteBenchmark {
    use rand::SeedableRng;
    let (n_dbs, n_examples) = dml_sizes(scale);
    let templates = spidergen::domains::train_domains();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let gdbs: Vec<spidergen::dbgen::GeneratedDb> = (0..n_dbs)
        .map(|i| {
            let t = &templates[i % templates.len()];
            spidergen::dbgen::instantiate(
                t,
                &format!("{}_{}", t.name, i / templates.len() + 1),
                &mut rng,
                spidergen::dbgen::PerturbConfig::default(),
            )
        })
        .collect();
    spidergen::generate_write_split("dml", &gdbs, &dml_profile(), n_examples, &mut rng)
}

/// Simulated NL→DML translator: samples three candidate statements per
/// example (gold echoed with high probability, otherwise a near-miss literal
/// perturbation) and resolves writes through the state-keyed
/// [`purple::write_vote`] — candidates execute against transient database
/// copies, never the canonical benchmark databases — and reads through
/// [`purple::raw_vote`]. Both votes execute through `session`. All randomness
/// derives from [`eval::seed_for`]`(base_seed, idx)`, so the translator is a
/// pure function of the job and reports fold byte-identically for any worker
/// count, engine, and cache configuration.
pub struct SimDmlTranslator {
    /// Base seed; per-example seeds derive from it by position.
    pub base_seed: u64,
    /// Session both votes execute through (caching does not change winners).
    pub session: std::sync::Arc<engine::ExecSession>,
}

impl SimDmlTranslator {
    fn candidate(&self, ex: &spidergen::WriteExample, rng: &mut rand::rngs::StdRng) -> String {
        use rand::Rng;
        if rng.random_bool(0.7) {
            return ex.sql.clone();
        }
        match perturb_statement(&ex.statement, rng) {
            Some(stmt) => stmt.to_string(),
            // Reads degrade to an unparseable fragment instead of a near-miss.
            None => "SELECT".to_string(),
        }
    }
}

/// Perturb one literal of a write statement into a near-miss; `None` for reads.
fn perturb_statement(
    stmt: &sqlkit::Statement,
    rng: &mut rand::rngs::StdRng,
) -> Option<sqlkit::Statement> {
    use sqlkit::{Condition, Literal, Operand, Statement, ValUnit};
    fn bump(l: &mut Literal) {
        *l = match l {
            Literal::Int(i) => Literal::Int(*i + 1),
            Literal::Float(f) => Literal::Float(*f + 1.0),
            Literal::Str(s) => Literal::Str(format!("{s}x")),
            Literal::Null => Literal::Int(0),
        };
    }
    fn bump_filter(c: &mut Option<Condition>) -> bool {
        if let Some(Condition::Pred(p)) = c {
            if let Operand::Literal(l) = &mut p.right {
                bump(l);
                return true;
            }
        }
        false
    }
    let mut out = stmt.clone();
    match &mut out {
        Statement::Select(_) => return None,
        Statement::Insert(ins) => {
            let row = ins.rows.first_mut()?;
            let l = row.last_mut()?;
            bump(l);
        }
        Statement::Update(up) => {
            use rand::Rng;
            let on_set = rng.random_bool(0.5);
            let mut done = false;
            if on_set {
                if let Some(a) = up.sets.first_mut() {
                    if let ValUnit::Literal(l) = &mut a.value {
                        bump(l);
                        done = true;
                    }
                }
            }
            if !done && !bump_filter(&mut up.where_clause) {
                return None;
            }
        }
        Statement::Delete(del) => {
            if !bump_filter(&mut del.where_clause) {
                return None;
            }
        }
    }
    Some(out)
}

impl eval::StatementTranslator for SimDmlTranslator {
    fn name(&self) -> String {
        "PURPLE-DML (simulated)".into()
    }

    fn run(&self, job: eval::DmlJob<'_>) -> eval::Translation {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(job.seed(self.base_seed));
        let candidates: Vec<String> =
            (0..3).map(|_| self.candidate(job.example, &mut rng)).collect();
        let probe = obs::Probe::detached();
        let sql = if job.example.statement.is_write() {
            purple::write_vote(&candidates, job.db, &self.session, &probe).sql
        } else {
            purple::raw_vote(&candidates, &self.session.bind(job.db), &probe)
        };
        eval::Translation {
            sql: sql.clone(),
            prompt_tokens: job.example.nl.len() as u64,
            output_tokens: sql.len() as u64,
        }
    }
}

/// Run the state-scored `dml` scenario family: generate the profile-driven
/// split, translate with the simulated voting translator (both votes run
/// through `session`), score through the same session, and fold the report in
/// example order — byte-identical for any `jobs` count, either engine, and
/// with or without caches.
pub fn dml_eval(
    scale: crate::context::Scale,
    seed: u64,
    jobs: usize,
    session: &std::sync::Arc<engine::ExecSession>,
) -> EvalReport {
    let bench = dml_bench(scale, seed);
    let translator = SimDmlTranslator { base_seed: seed, session: session.clone() };
    eval::evaluate_dml(&translator, &bench, jobs, session)
}
