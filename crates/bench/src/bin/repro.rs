//! `repro` — regenerate every table and figure of the PURPLE paper.
//!
//! ```text
//! repro [--scale tiny|medium|full] [--seed N] [--jobs N] [--metrics PATH]
//!       [--diagnose PATH [--events PATH]] [--wall-clock] [--no-exec-cache] [--dml]
//!       [--archive DIR [--profile chatgpt|gpt4] [--baseline RUN [--gate]]]
//!       [--only NAME] [EXPERIMENTS...]
//!
//! EXPERIMENTS: --table1 --table2 --table3 --table4 --table5 --table6
//!              --fig9 --fig10 --fig11 --fig12 --automaton-stats --all
//! ```
//!
//! With no experiment flags, `--all` is assumed. `--scale medium` is the default
//! recorded in EXPERIMENTS.md; `full` matches the paper's Table-3 sizes.

use bench_harness::{experiments as exp, report, ReproContext, Scale};
use std::time::Instant;

#[derive(Default)]
struct Args {
    scale: Option<Scale>,
    seed: u64,
    jobs: Option<usize>,
    metrics: Option<String>,
    diagnose: Option<String>,
    events: Option<String>,
    wall_clock: bool,
    no_exec_cache: bool,
    dml: bool,
    archive: Option<String>,
    baseline: Option<String>,
    gate: bool,
    gate_ex: usize,
    gate_ts: usize,
    gate_blame: f64,
    diff_out: Option<String>,
    diff_json: Option<String>,
    profile: Option<String>,
    table1: bool,
    table2: bool,
    table3: bool,
    table4: bool,
    table5: bool,
    table6: bool,
    fig9: bool,
    fig10: bool,
    fig11: bool,
    fig12: bool,
    automaton: bool,
    support: bool,
    rewrites: bool,
    generation: bool,
    sweep: bool,
    model_stats: bool,
    errors: bool,
    cost: bool,
}

/// The [`Args`] flag an experiment sets.
type Flag = fn(&mut Args) -> &mut bool;

/// Every experiment by name (`--only NAME` or `--NAME`) with the flag it
/// sets. The first [`DEFAULT_EXPERIMENTS`] are the paper's tables and figures:
/// what `--all`, or a command line naming no experiment, runs.
const EXPERIMENTS: [(&str, Flag); 18] = [
    ("table1", |a| &mut a.table1),
    ("table2", |a| &mut a.table2),
    ("table3", |a| &mut a.table3),
    ("table4", |a| &mut a.table4),
    ("table5", |a| &mut a.table5),
    ("table6", |a| &mut a.table6),
    ("fig9", |a| &mut a.fig9),
    ("fig10", |a| &mut a.fig10),
    ("fig11", |a| &mut a.fig11),
    ("fig12", |a| &mut a.fig12),
    ("automaton-stats", |a| &mut a.automaton),
    ("support-stats", |a| &mut a.support),
    ("rewrite-stats", |a| &mut a.rewrites),
    ("extension-generation", |a| &mut a.generation),
    ("seed-sweep", |a| &mut a.sweep),
    ("model-stats", |a| &mut a.model_stats),
    ("error-analysis", |a| &mut a.errors),
    ("cost-report", |a| &mut a.cost),
];

/// How many leading [`EXPERIMENTS`] run by default.
const DEFAULT_EXPERIMENTS: usize = 11;

/// Turn an experiment name into the matching experiment flag. Returns false
/// for names that don't exist.
fn set_experiment(args: &mut Args, name: &str) -> bool {
    match EXPERIMENTS.iter().find(|(n, _)| *n == name) {
        Some((_, flag)) => *flag(args) = true,
        None => return false,
    }
    true
}

fn set_default_experiments(args: &mut Args) {
    for (_, flag) in &EXPERIMENTS[..DEFAULT_EXPERIMENTS] {
        *flag(args) = true;
    }
}

fn parse_args() -> Args {
    let mut args = Args { seed: 42, gate_blame: 10.0, ..Default::default() };
    let mut any = false;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                let v = it.next().unwrap_or_default();
                args.scale = Scale::parse(&v);
                if args.scale.is_none() {
                    eprintln!("unknown scale `{v}` (tiny|medium|full)");
                    std::process::exit(2);
                }
            }
            "--seed" => {
                args.seed = it.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--seed needs an integer");
                    std::process::exit(2);
                });
            }
            "--jobs" => {
                let jobs = it.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--jobs needs a positive integer");
                    std::process::exit(2);
                });
                if jobs == 0 {
                    eprintln!("--jobs needs a positive integer");
                    std::process::exit(2);
                }
                args.jobs = Some(jobs);
            }
            "--metrics" => {
                let path = it.next().unwrap_or_default();
                if path.is_empty() {
                    eprintln!("--metrics needs an output path");
                    std::process::exit(2);
                }
                args.metrics = Some(path);
                any = true;
            }
            "--diagnose" => {
                let path = it.next().unwrap_or_default();
                if path.is_empty() {
                    eprintln!("--diagnose needs an output path");
                    std::process::exit(2);
                }
                args.diagnose = Some(path);
                any = true;
            }
            "--events" => {
                let path = it.next().unwrap_or_default();
                if path.is_empty() {
                    eprintln!("--events needs an output path");
                    std::process::exit(2);
                }
                args.events = Some(path);
                any = true;
            }
            "--wall-clock" => {
                args.wall_clock = true;
            }
            "--only" => {
                let name = it.next().unwrap_or_default();
                if !set_experiment(&mut args, &name) {
                    let names: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
                    eprintln!("unknown experiment `{name}`; valid names: {}", names.join(" "));
                    std::process::exit(2);
                }
                any = true;
            }
            "--archive" => {
                let dir = it.next().unwrap_or_default();
                if dir.is_empty() {
                    eprintln!("--archive needs a registry directory");
                    std::process::exit(2);
                }
                args.archive = Some(dir);
                any = true;
            }
            "--baseline" => {
                let id = it.next().unwrap_or_default();
                if id.is_empty() {
                    eprintln!("--baseline needs a run id (or unique prefix, or `latest`)");
                    std::process::exit(2);
                }
                args.baseline = Some(id);
                any = true;
            }
            "--gate" => {
                args.gate = true;
            }
            "--gate-ex" => {
                args.gate_ex = it.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--gate-ex needs an integer threshold");
                    std::process::exit(2);
                });
            }
            "--gate-ts" => {
                args.gate_ts = it.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--gate-ts needs an integer threshold");
                    std::process::exit(2);
                });
            }
            "--gate-blame" => {
                args.gate_blame = it.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--gate-blame needs a percentage-point threshold");
                    std::process::exit(2);
                });
            }
            "--diff-out" => {
                let path = it.next().unwrap_or_default();
                if path.is_empty() {
                    eprintln!("--diff-out needs an output path");
                    std::process::exit(2);
                }
                args.diff_out = Some(path);
            }
            "--diff-json" => {
                let path = it.next().unwrap_or_default();
                if path.is_empty() {
                    eprintln!("--diff-json needs an output path");
                    std::process::exit(2);
                }
                args.diff_json = Some(path);
            }
            "--profile" => {
                let p = it.next().unwrap_or_default();
                if p != "chatgpt" && p != "gpt4" {
                    eprintln!("unknown profile `{p}` (chatgpt|gpt4)");
                    std::process::exit(2);
                }
                args.profile = Some(p);
            }
            "--no-exec-cache" => {
                args.no_exec_cache = true;
            }
            "--dml" => {
                args.dml = true;
                any = true;
            }
            "--all" => {
                set_default_experiments(&mut args);
                any = true;
            }
            "--help" | "-h" => {
                println!(
                    "repro [--scale tiny|medium|full] [--seed N] [--jobs N] [--table1..6] \
                     [--fig9..12] [--automaton-stats] [--metrics PATH] \
                     [--diagnose PATH [--events PATH]] [--wall-clock] [--all]\n\n\
                     --jobs N        worker threads for per-example evaluation \
                     (default: available parallelism); results are identical for any N\n\
                     --metrics PATH  run an instrumented PURPLE dev evaluation and dump \
                     per-stage metrics JSON to PATH (byte-identical for any --jobs)\n\
                     --diagnose PATH run a traced PURPLE dev evaluation, attribute every \
                     EX-loss to a pipeline module, and write the blame table as markdown \
                     to PATH (byte-identical for any --jobs)\n\
                     --events PATH   with --diagnose: also dump the structured trace \
                     events as JSONL to PATH (byte-identical for any --jobs)\n\
                     --wall-clock    record real elapsed nanoseconds in --metrics spans \
                     instead of deterministic work units\n\
                     --no-exec-cache disable the shared parse/result cache and \
                     execute every query from scratch; reports are byte-identical with \
                     or without the cache\n\
                     --dml           run the NL→DML scenario family instead of the paper \
                     experiments: generate a profile-driven read/write split, translate \
                     with the simulated voting translator, and score by resulting \
                     database state; honors --jobs/--no-exec-cache \
                     (reports byte-identical under all of them), --metrics (writes the \
                     report JSON), and --archive/--baseline/--gate\n\
                     --only NAME     run a single experiment by name (repeatable); \
                     names: table1..table6, fig9..fig12, automaton-stats, support-stats, \
                     rewrite-stats, extension-generation, seed-sweep, model-stats, \
                     error-analysis, cost-report\n\
                     --archive DIR   run a full-fidelity PURPLE dev evaluation \
                     (EM/EX/TS + metrics + attribution) and record it in the run \
                     registry at DIR; prints `run_id=...` (byte-identical for any --jobs)\n\
                     --profile P     LLM profile for --archive: chatgpt (default) or gpt4\n\
                     --baseline RUN  with --archive: diff the fresh run against archived \
                     run RUN (full id, unique prefix, or `latest`) and print the \
                     markdown dashboard\n\
                     --diff-out PATH with --baseline: also write the dashboard to PATH\n\
                     --diff-json PATH with --baseline: also write the machine-readable \
                     diff JSON to PATH\n\
                     --gate          with --baseline: exit nonzero when the candidate \
                     regresses past the thresholds\n\
                     --gate-ex N     allowed EX hit->miss flips (default 0)\n\
                     --gate-ts N     allowed TS hit->miss flips (default 0)\n\
                     --gate-blame F  allowed blame-share growth in percentage points \
                     (default 10.0)"
                );
                std::process::exit(0);
            }
            other => match other.strip_prefix("--") {
                Some(name) if set_experiment(&mut args, name) => any = true,
                _ => {
                    eprintln!("unknown argument `{other}` (try --help)");
                    std::process::exit(2);
                }
            },
        }
    }
    if !any {
        set_default_experiments(&mut args);
    }
    args
}

fn main() {
    let args = parse_args();
    if args.events.is_some() && args.diagnose.is_none() {
        eprintln!("--events requires --diagnose");
        std::process::exit(2);
    }
    if args.baseline.is_some() && args.archive.is_none() {
        eprintln!("--baseline requires --archive (the registry holding the baseline run)");
        std::process::exit(2);
    }
    if (args.gate || args.diff_out.is_some() || args.diff_json.is_some()) && args.baseline.is_none()
    {
        eprintln!("--gate/--diff-out/--diff-json require --baseline");
        std::process::exit(2);
    }
    if args.profile.is_some() && args.archive.is_none() {
        eprintln!("--profile requires --archive");
        std::process::exit(2);
    }
    let scale = args.scale.unwrap_or(Scale::Medium);
    let t0 = Instant::now();
    if args.dml {
        run_dml(&args, scale, &t0);
        eprintln!("[repro] done in {:.1}s", t0.elapsed().as_secs_f64());
        return;
    }
    eprintln!("[repro] building context (scale {scale:?}, seed {})...", args.seed);
    let mut ctx = ReproContext::build(scale, args.seed);
    if let Some(jobs) = args.jobs {
        ctx.jobs = jobs;
    }
    if args.no_exec_cache {
        ctx.session = engine::ExecSession::disabled();
        eprintln!("[repro] execution cache disabled (--no-exec-cache)");
    }
    eprintln!("[repro] evaluating with {} worker thread(s)", ctx.jobs);
    eprintln!(
        "[repro] suite ready: train {} ex / {} dbs, dev {} ex / {} dbs ({:.1}s)",
        ctx.suite.train.examples.len(),
        ctx.suite.train.databases.len(),
        ctx.suite.dev.examples.len(),
        ctx.suite.dev.databases.len(),
        t0.elapsed().as_secs_f64()
    );

    if args.table3 {
        println!("{}", report::render_table3(&exp::table3(&ctx)));
    }
    if args.automaton {
        println!("{}", report::render_automaton(exp::automaton_stats(&ctx)));
    }
    if args.rewrites {
        let (eq, preserved, total) = exp::rewrite_stats(&ctx);
        println!(
            "Near-miss rewrites: {:.0} draws, {:.1}% equivalent-family, {:.1}% EX-preserving\n",
            total,
            eq * 100.0,
            preserved * 100.0
        );
    }
    if args.support {
        println!("Support-level histogram (Detail/Keywords/Structure/Clause/None):");
        for (name, hist) in exp::support_stats(&ctx) {
            println!("  {name:<12} {hist:?}");
        }
        println!();
    }
    if args.table2 {
        println!("{}", report::render_table2(&exp::table2(&ctx)));
    }
    if args.table4 || args.table1 {
        eprintln!("[repro] running Table 4 ({:.1}s)...", t0.elapsed().as_secs_f64());
        let rows = exp::table4(&mut ctx);
        if args.table1 {
            println!(
                "{}",
                report::render_rows(
                    "Table 1: LLMs-based approaches accuracy on the validation split",
                    &exp::table1(&rows),
                    false
                )
            );
        }
        if args.table4 {
            println!(
                "{}",
                report::render_rows("Table 4: translation accuracy (EM/EX/TS)", &rows, true)
            );
        }
    }
    if args.fig9 {
        eprintln!("[repro] running Figure 9 ({:.1}s)...", t0.elapsed().as_secs_f64());
        println!("{}", report::render_fig9(&exp::fig9(&ctx)));
    }
    if args.fig10 {
        eprintln!("[repro] running Figure 10 ({:.1}s)...", t0.elapsed().as_secs_f64());
        println!("{}", report::render_fig10(&exp::fig10(&ctx)));
    }
    if args.fig11 {
        eprintln!("[repro] running Figure 11 ({:.1}s)...", t0.elapsed().as_secs_f64());
        println!("{}", report::render_fig11(&exp::fig11(&ctx)));
    }
    if args.fig12 {
        eprintln!("[repro] running Figure 12 ({:.1}s)...", t0.elapsed().as_secs_f64());
        println!("{}", report::render_fig12(&exp::fig12_left(&ctx), &exp::fig12_right(&ctx)));
    }
    if args.table5 {
        eprintln!("[repro] running Table 5 ({:.1}s)...", t0.elapsed().as_secs_f64());
        println!(
            "{}",
            report::render_rows("Table 5: EM/EX under ChatGPT vs GPT4", &exp::table5(&ctx), false)
        );
    }
    if args.table6 {
        eprintln!("[repro] running Table 6 ({:.1}s)...", t0.elapsed().as_secs_f64());
        println!("{}", report::render_rows("Table 6: ablation study", &exp::table6(&ctx), false));
    }
    if args.model_stats {
        println!("{}", exp::model_stats(&ctx));
    }
    if args.errors {
        eprintln!("[repro] running error analysis ({:.1}s)...", t0.elapsed().as_secs_f64());
        println!("Failure-mode analysis on dev");
        println!("----------------------------");
        for (name, report) in exp::error_analysis(&ctx) {
            println!("{name}:");
            print!("{}", report.render());
        }
        println!();
    }
    if args.cost {
        eprintln!("[repro] running cost report ({:.1}s)...", t0.elapsed().as_secs_f64());
        println!("Cost report (§V-D): tokens and 2023-list-price dollars per query");
        println!("----------------------------------------------------------------");
        println!(
            "{:<18} {:>12} {:>12} {:>12} {:>7}",
            "system", "tok/query", "USD/query", "USD total", "EM%"
        );
        for r in exp::cost_report(&ctx) {
            println!(
                "{:<18} {:>12.0} {:>12.4} {:>12.2} {:>7.1}",
                r.system, r.tokens_per_query, r.usd_per_query, r.usd_total, r.em
            );
        }
        println!();
    }
    if args.sweep {
        eprintln!("[repro] running seed sweep ({:.1}s)...", t0.elapsed().as_secs_f64());
        let seeds: Vec<u64> = (0..5).map(|i| args.seed.wrapping_add(i * 1009)).collect();
        let rows = exp::seed_sweep(scale, &seeds);
        println!("Seed sweep: PURPLE (ChatGPT) across regenerated benchmarks");
        println!("----------------------------------------------------------");
        for (seed, em, ex) in &rows {
            println!("  seed {seed:<8} EM {em:>5.1}%  EX {ex:>5.1}%");
        }
        let (em_mu, em_sd) = exp::mean_std(&rows.iter().map(|r| r.1).collect::<Vec<_>>());
        let (ex_mu, ex_sd) = exp::mean_std(&rows.iter().map(|r| r.2).collect::<Vec<_>>());
        println!("  mean ± std     EM {em_mu:.1} ± {em_sd:.1}   EX {ex_mu:.1} ± {ex_sd:.1}");
        println!();
    }
    if let Some(path) = &args.metrics {
        eprintln!(
            "[repro] running instrumented evaluation ({:.1}s)...",
            t0.elapsed().as_secs_f64()
        );
        let report = exp::metrics_eval(&ctx, args.wall_clock);
        let json = eval::metrics_to_json(&report.metrics);
        // Self-check: the dump must round-trip through our own parser.
        let parsed = eval::metrics_from_json(&json).unwrap_or_else(|e| {
            eprintln!("metrics JSON failed to round-trip: {e}");
            std::process::exit(1);
        });
        assert_eq!(parsed, report.metrics, "metrics JSON round-trip mismatch");
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        println!("{}", report::render_metrics(&report.metrics));
        // Cache and operator traffic are interleaving-dependent, so they are
        // rendered to stdout only and never enter the metrics JSON (which
        // stays byte-identical for any --jobs, with or without the cache, and
        // under either engine).
        println!("{}", ctx.session.stats().render());
        println!("{}", ctx.session.op_stats().render());
        eprintln!("[repro] metrics written to {path}");
    }
    if let Some(path) = &args.diagnose {
        eprintln!("[repro] running blame diagnosis ({:.1}s)...", t0.elapsed().as_secs_f64());
        let out = exp::diagnose(&ctx);
        let attribution = out.report.attribution.as_ref().expect("diagnose fills attribution");
        // Self-check: the attribution must round-trip through our own parser,
        // standalone and embedded in the full report.
        let json = eval::attribution_to_json(attribution);
        let parsed = eval::attribution_from_json(&json).unwrap_or_else(|e| {
            eprintln!("attribution JSON failed to round-trip: {e}");
            std::process::exit(1);
        });
        assert_eq!(&parsed, attribution, "attribution JSON round-trip mismatch");
        let report_json = eval::report_to_json(&out.report);
        let report_parsed = eval::report_from_json(&report_json).unwrap_or_else(|e| {
            eprintln!("report JSON failed to round-trip: {e}");
            std::process::exit(1);
        });
        assert_eq!(
            report_parsed.attribution.as_ref(),
            Some(attribution),
            "report JSON round-trip lost attribution"
        );
        if let Err(e) = std::fs::write(path, &out.markdown) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        print!("{}", out.markdown);
        eprintln!("[repro] blame table written to {path}");
        if let Some(events_path) = &args.events {
            if let Err(e) = std::fs::write(events_path, &out.events_jsonl) {
                eprintln!("cannot write {events_path}: {e}");
                std::process::exit(1);
            }
            eprintln!(
                "[repro] {} trace events written to {events_path}",
                out.events_jsonl.lines().count()
            );
        }
    }
    if args.generation {
        eprintln!(
            "[repro] running generation-based prompting extension ({:.1}s)...",
            t0.elapsed().as_secs_f64()
        );
        println!("Extension: demonstration sourcing (§VII future work)");
        println!("----------------------------------------------------");
        for r in exp::extension_generation(&ctx) {
            println!("{:<20} EM {:>5.1}%  EX {:>5.1}%", r.label, r.em, r.ex);
        }
        println!();
    }
    if let Some(root) = &args.archive {
        archive_and_diff(&args, &mut ctx, scale, root, &t0);
    }
    eprintln!("[repro] done in {:.1}s", t0.elapsed().as_secs_f64());
}

/// `--archive` (and optional `--baseline`/`--gate`): run the full-fidelity
/// evaluation, record it in the registry, diff against the baseline, render
/// the dashboard, and enforce the gate thresholds.
fn archive_and_diff(args: &Args, ctx: &mut ReproContext, scale: Scale, root: &str, t0: &Instant) {
    let registry = eval::RunRegistry::open(root).unwrap_or_else(|e| {
        eprintln!("cannot open run registry at {root}: {e}");
        std::process::exit(1);
    });
    // Resolve the baseline before recording the candidate. Recording first
    // would let `--baseline latest` resolve to the just-archived candidate
    // whenever the config changed (new run id), so the diff would be a
    // self-diff and `--gate` could never fail in exactly the changed-config
    // case it exists to catch. Resolving first also fails fast on a bad
    // reference before the expensive archival evaluation runs.
    let base_id = args.baseline.as_ref().map(|reference| {
        registry.resolve(reference).unwrap_or_else(|e| {
            eprintln!("cannot resolve baseline `{reference}`: {e}");
            std::process::exit(2);
        })
    });
    eprintln!("[repro] running archival evaluation ({:.1}s)...", t0.elapsed().as_secs_f64());
    let profile = match args.profile.as_deref() {
        Some("gpt4") => llm::GPT4,
        _ => llm::CHATGPT,
    };
    let report = exp::archive_eval(ctx, profile);
    let manifest = eval::RunManifest {
        system: report.system.clone(),
        split: report.split.clone(),
        scale: scale.name().to_string(),
        seed: args.seed,
        jobs: ctx.jobs,
        profile: profile.name.to_string(),
        config_fingerprint: eval::fingerprint(&format!(
            "{:?}",
            purple::PurpleConfig::default_with(profile)
        )),
        git_rev: eval::git_rev(std::path::Path::new(".")).unwrap_or_else(|| "unknown".into()),
        schema_version: eval::REPORT_SCHEMA_VERSION,
        examples: report.overall.n,
    };
    let run_id = registry.record(&manifest, &report).unwrap_or_else(|e| {
        eprintln!("cannot archive run: {e}");
        std::process::exit(1);
    });
    println!("run_id={run_id}");
    eprintln!(
        "[repro] archived {} ({} examples) under {root}/{run_id}",
        report.system, report.overall.n
    );
    let Some(base_id) = base_id else {
        return;
    };
    diff_and_gate(args, &registry, &base_id, &run_id, &report, t0);
}

/// `--baseline` tail shared by the paper archive and the DML family: diff the
/// fresh run against the baseline, render/write the dashboard, enforce `--gate`.
fn diff_and_gate(
    args: &Args,
    registry: &eval::RunRegistry,
    base_id: &str,
    run_id: &str,
    report: &eval::EvalReport,
    t0: &Instant,
) {
    let (_, base_report) = registry.load(base_id).unwrap_or_else(|e| {
        eprintln!("cannot load baseline {base_id}: {e}");
        std::process::exit(2);
    });
    let diff = eval::diff_reports(base_id, &base_report, run_id, report).unwrap_or_else(|e| {
        eprintln!("cannot diff {run_id} against {base_id}: {e}");
        std::process::exit(2);
    });
    // Self-check: the diff must round-trip through our own parser bit-exactly.
    let json = eval::diff_to_json(&diff);
    let parsed = eval::diff_from_json(&json).unwrap_or_else(|e| {
        eprintln!("diff JSON failed to round-trip: {e}");
        std::process::exit(1);
    });
    assert_eq!(parsed, diff, "diff JSON round-trip mismatch");
    print!("{}", diff.render_markdown());
    if let Some(path) = &args.diff_out {
        if let Err(e) = std::fs::write(path, diff.render_markdown()) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("[repro] diff dashboard written to {path}");
    }
    if let Some(path) = &args.diff_json {
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("[repro] diff JSON written to {path}");
    }
    if args.gate {
        let cfg = eval::GateConfig {
            max_ex_regressions: args.gate_ex,
            max_ts_regressions: args.gate_ts,
            max_blame_share_increase: args.gate_blame,
        };
        let outcome = eval::gate(&diff, &cfg);
        if outcome.passed {
            eprintln!("[repro] gate passed: {run_id} vs baseline {base_id}");
        } else {
            eprintln!("[repro] gate FAILED: {run_id} vs baseline {base_id}");
            for v in &outcome.violations {
                eprintln!("  - {v}");
            }
            eprintln!("[repro] done in {:.1}s", t0.elapsed().as_secs_f64());
            std::process::exit(1);
        }
    }
}

/// `--dml`: the NL→DML scenario family. Standalone — no demonstration pool or
/// model training — so it skips the expensive `ReproContext` build. The report
/// is byte-identical for any `--jobs` and with or without the execution cache;
/// `ci/smoke.sh dml` asserts exactly that.
fn run_dml(args: &Args, scale: Scale, t0: &Instant) {
    let session = if args.no_exec_cache {
        engine::ExecSession::disabled()
    } else {
        engine::ExecSession::shared()
    };
    if args.no_exec_cache {
        eprintln!("[repro] execution cache disabled (--no-exec-cache)");
    }
    let jobs = args
        .jobs
        .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1));
    eprintln!(
        "[repro] running DML scenario family (scale {scale:?}, seed {}, {jobs} worker thread(s))...",
        args.seed
    );
    let report = exp::dml_eval(scale, args.seed, jobs, &session);
    println!("NL→DML, state-scored (EX = post-write fingerprint, TS = EX + rows affected)");
    println!("--------------------------------------------------------------------------");
    println!("{}", report.summary());
    let names = ["insert", "delete", "update", "upsert"];
    for (name, b) in names.iter().zip(&report.by_hardness) {
        println!(
            "  {name:<8} n {:>4}  EM {:>5.1}%  EX {:>5.1}%  TS {:>5.1}%",
            b.n,
            b.em_pct(),
            b.ex_pct(),
            b.ts_pct()
        );
    }
    println!();
    if let Some(path) = &args.metrics {
        let json = eval::report_to_json(&report);
        let parsed = eval::report_from_json(&json).unwrap_or_else(|e| {
            eprintln!("report JSON failed to round-trip: {e}");
            std::process::exit(1);
        });
        // Write-path stage/counter metrics intentionally stay out of the wire
        // format (DESIGN.md §15), so the struct round-trip is lossy on the
        // metrics block; the scored surfaces and the codec itself must still
        // be exact.
        assert_eq!(parsed.overall, report.overall, "report JSON round-trip mismatch");
        assert_eq!(parsed.by_hardness, report.by_hardness, "report JSON round-trip mismatch");
        assert_eq!(parsed.examples, report.examples, "report JSON round-trip mismatch");
        assert_eq!(eval::report_to_json(&parsed), json, "report JSON re-serialization mismatch");
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("[repro] DML report written to {path}");
    }
    let Some(root) = &args.archive else {
        return;
    };
    let registry = eval::RunRegistry::open(root).unwrap_or_else(|e| {
        eprintln!("cannot open run registry at {root}: {e}");
        std::process::exit(1);
    });
    // Baseline resolves before the candidate records, for the same reason as
    // the paper archive path (see archive_and_diff).
    let base_id = args.baseline.as_ref().map(|reference| {
        registry.resolve(reference).unwrap_or_else(|e| {
            eprintln!("cannot resolve baseline `{reference}`: {e}");
            std::process::exit(2);
        })
    });
    let manifest = eval::RunManifest {
        system: report.system.clone(),
        split: report.split.clone(),
        scale: scale.name().to_string(),
        seed: args.seed,
        jobs,
        profile: "dml-sim".to_string(),
        config_fingerprint: eval::fingerprint(&format!("{:?}", exp::dml_profile())),
        git_rev: eval::git_rev(std::path::Path::new(".")).unwrap_or_else(|| "unknown".into()),
        schema_version: eval::REPORT_SCHEMA_VERSION,
        examples: report.overall.n,
    };
    let run_id = registry.record(&manifest, &report).unwrap_or_else(|e| {
        eprintln!("cannot archive run: {e}");
        std::process::exit(1);
    });
    println!("run_id={run_id}");
    eprintln!(
        "[repro] archived {} ({} examples) under {root}/{run_id}",
        report.system, report.overall.n
    );
    if let Some(base_id) = base_id {
        diff_and_gate(args, &registry, &base_id, &run_id, &report, t0);
    }
}
