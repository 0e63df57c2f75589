//! Per-module failure attribution ("blame"): join a translation trace with the
//! [`crate::error_analysis`] failure mode to decide which PURPLE module lost
//! each EX miss (DESIGN.md §9).
//!
//! The paper argues each module removes a distinct failure band (ablations,
//! Table VIII); this module makes that argument measurable per example. The
//! cascade walks the pipeline in stage order and blames the *first* module
//! whose contract was violated — upstream misses make downstream behaviour
//! unattributable, so precedence follows dataflow:
//!
//! 1. [`Blame::PruningRecallMiss`] — schema pruning dropped a gold item, so no
//!    later stage could have recovered.
//! 2. [`Blame::SkeletonTopKMiss`] — the gold skeleton was absent from the
//!    predictor's top-k.
//! 3. [`Blame::DemoSupportGap`] — no demonstration matched at any abstraction
//!    level (or every match was dropped by the token budget), so the LLM saw
//!    no relevant exemplar.
//! 4. [`Blame::AdaptionRegression`] — some raw sample was EX-correct but its
//!    adapted form is not: a fixer broke it.
//! 5. [`Blame::VoteMisselection`] — an EX-correct adapted sample existed but
//!    the consistency vote picked another.
//! 6. [`Blame::LlmHallucination`] — every module upheld its contract and no
//!    sample was ever correct: the model itself missed. Split by the paper's
//!    six error categories via which fixer categories fired.

use crate::error_analysis::{classify, FailureMode};
use crate::metrics::ex_match_str;
use engine::Database;
use sqlkit::{Level, Query};
use std::fmt::Write as _;

/// Which pipeline module an EX loss is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Blame {
    /// Schema pruning removed a gold schema item (recall miss).
    PruningRecallMiss,
    /// The gold skeleton was not in the predictor's top-k.
    SkeletonTopKMiss,
    /// No demonstration supported the prediction at any abstraction level.
    DemoSupportGap,
    /// Nothing upstream failed and no sample was ever EX-correct: the LLM
    /// hallucinated (split by error category via the fixers that fired).
    LlmHallucination,
    /// A database-adaption fixer turned an EX-correct sample wrong.
    AdaptionRegression,
    /// An EX-correct adapted sample existed but the consistency vote chose a
    /// wrong one.
    VoteMisselection,
}

impl Blame {
    /// Number of blame classes (array dimension of [`AttributionReport::counts`]).
    pub const COUNT: usize = 6;

    /// Every blame class, in pipeline order. This order is the serialization
    /// order.
    pub const ALL: [Blame; Blame::COUNT] = [
        Blame::PruningRecallMiss,
        Blame::SkeletonTopKMiss,
        Blame::DemoSupportGap,
        Blame::LlmHallucination,
        Blame::AdaptionRegression,
        Blame::VoteMisselection,
    ];

    /// Stable kebab-case name used in JSON and report tables.
    pub fn name(self) -> &'static str {
        match self {
            Blame::PruningRecallMiss => "pruning-recall-miss",
            Blame::SkeletonTopKMiss => "skeleton-topk-miss",
            Blame::DemoSupportGap => "demo-support-gap",
            Blame::LlmHallucination => "llm-hallucination",
            Blame::AdaptionRegression => "adaption-regression",
            Blame::VoteMisselection => "vote-misselection",
        }
    }

    /// Parse a [`Blame::name`] back.
    pub fn from_name(name: &str) -> Option<Blame> {
        Blame::ALL.into_iter().find(|b| b.name() == name)
    }

    /// Array index (position within [`Blame::ALL`]).
    pub fn index(self) -> usize {
        self as usize
    }
}

/// The trace facts attribution needs, flattened to plain data so any
/// translator (and any crate layer above `eval`) can supply them.
///
/// `purple`'s `TranslationTrace::blame` builds one of these from a real trace;
/// tests build them by hand.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSummary {
    /// Whether the pruned schema still covered every gold item.
    pub recall_covered: bool,
    /// Whether the gold skeleton appeared in the predictor's top-k.
    pub gold_in_topk: bool,
    /// Abstraction level at which a demonstration supported the prompt
    /// (`None` = no support at any level, or all support dropped by budget).
    pub support_level: Option<Level>,
    /// Demonstrations dropped by the token budget (context for support gaps).
    pub dropped_by_budget: usize,
    /// Raw LLM samples, pre-adaption, in generation order.
    pub samples: Vec<String>,
    /// The same samples post-adaption (identical to `samples` when adaption is
    /// disabled), parallel to `samples`.
    pub adapted: Vec<String>,
    /// Fixer categories that fired during adaption, in firing order.
    pub fixes: Vec<String>,
    /// The SQL the vote finally selected.
    pub final_sql: String,
}

/// The attribution outcome for one EX-lost example.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// The module charged with the loss.
    pub blame: Blame,
    /// For [`Blame::LlmHallucination`]: the first fixer category that fired,
    /// mapped to the paper's error taxonomy (`None` when no fixer fired).
    pub category: Option<obs::Fixer>,
    /// The failure mode of the final SQL (never `Correct`/`EquivalentForm`).
    pub mode: FailureMode,
}

/// Attribute one example's outcome to a module.
///
/// Returns `None` when the final SQL is EX-correct ([`FailureMode::Correct`]
/// or [`FailureMode::EquivalentForm`]) — there is no loss to attribute — and
/// otherwise the first-violated-module verdict per the cascade in the module
/// docs.
pub fn attribute(trace: &TraceSummary, gold: &Query, db: &Database) -> Option<Verdict> {
    let mode = classify(&trace.final_sql, gold, db);
    if matches!(mode, FailureMode::Correct | FailureMode::EquivalentForm) {
        return None;
    }
    let mut category = None;
    let blame = if !trace.recall_covered {
        Blame::PruningRecallMiss
    } else if !trace.gold_in_topk {
        Blame::SkeletonTopKMiss
    } else if trace.support_level.is_none() {
        Blame::DemoSupportGap
    } else {
        let raw_ok: Vec<bool> = trace.samples.iter().map(|s| ex_match_str(s, gold, db)).collect();
        let adapted_ok: Vec<bool> =
            trace.adapted.iter().map(|s| ex_match_str(s, gold, db)).collect();
        let regressed = raw_ok.iter().zip(&adapted_ok).any(|(&raw, &adapted)| raw && !adapted);
        if regressed {
            Blame::AdaptionRegression
        } else if adapted_ok.iter().any(|&ok| ok) {
            Blame::VoteMisselection
        } else {
            category = trace.fixes.first().and_then(|f| obs::Fixer::from_name(f));
            Blame::LlmHallucination
        }
    };
    Some(Verdict { blame, category, mode })
}

/// Aggregated blame counts for one evaluated split.
///
/// Built by folding per-example [`Verdict`]s **in example order**, like every
/// other report aggregate, so it is identical for any worker count. The class
/// counts sum to `total - ex_correct` (every EX loss is attributed to exactly
/// one module).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AttributionReport {
    /// Examples analyzed.
    pub total: usize,
    /// Examples whose final SQL was EX-correct (nothing to attribute).
    pub ex_correct: usize,
    /// Per-class loss counts, indexed by [`Blame::index`].
    pub counts: [usize; Blame::COUNT],
    /// [`Blame::LlmHallucination`] losses split by the paper's error
    /// categories, indexed by [`obs::Fixer::index`].
    pub llm_by_category: [usize; obs::Fixer::COUNT],
    /// Hallucination losses where no fixer fired (no category evidence).
    pub llm_uncategorized: usize,
}

impl AttributionReport {
    /// Fold one example's verdict (`None` = EX-correct).
    pub fn add(&mut self, verdict: Option<&Verdict>) {
        self.total += 1;
        let Some(v) = verdict else {
            self.ex_correct += 1;
            return;
        };
        self.counts[v.blame.index()] += 1;
        if v.blame == Blame::LlmHallucination {
            match v.category {
                Some(f) => self.llm_by_category[f.index()] += 1,
                None => self.llm_uncategorized += 1,
            }
        }
    }

    /// Total attributed losses (= sum of [`AttributionReport::counts`]).
    pub fn blamed(&self) -> usize {
        self.counts.iter().sum()
    }

    /// Count for one blame class.
    pub fn count(&self, blame: Blame) -> usize {
        self.counts[blame.index()]
    }

    /// A class's share of all EX losses, in percent (0 when lossless).
    pub fn share(&self, blame: Blame) -> f64 {
        let blamed = self.blamed();
        if blamed == 0 {
            0.0
        } else {
            100.0 * self.count(blame) as f64 / blamed as f64
        }
    }

    /// Render the blame table as markdown. Every class gets a row (zeros
    /// included) so the table shape is fixed; the hallucination split follows
    /// as a second table.
    pub fn render_markdown(&self) -> String {
        let mut out = String::new();
        writeln!(out, "## Failure attribution").unwrap();
        writeln!(out).unwrap();
        writeln!(
            out,
            "{} examples · {} EX-correct · {} losses attributed",
            self.total,
            self.ex_correct,
            self.blamed()
        )
        .unwrap();
        writeln!(out).unwrap();
        writeln!(out, "| blame class | count | EX-loss share |").unwrap();
        writeln!(out, "|---|---:|---:|").unwrap();
        for b in Blame::ALL {
            writeln!(out, "| {} | {} | {:.1}% |", b.name(), self.count(b), self.share(b)).unwrap();
        }
        writeln!(out).unwrap();
        writeln!(out, "### LLM hallucination by error category").unwrap();
        writeln!(out).unwrap();
        writeln!(out, "| category | count |").unwrap();
        writeln!(out, "|---|---:|").unwrap();
        for f in obs::Fixer::ALL {
            writeln!(out, "| {} | {} |", f.name(), self.llm_by_category[f.index()]).unwrap();
        }
        writeln!(out, "| uncategorized | {} |", self.llm_uncategorized).unwrap();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine::Value;
    use sqlkit::{parse, Column, ColumnType, Schema, Table};

    fn db() -> Database {
        let mut s = Schema::new("d");
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
        for (i, (n, g)) in [("a", "x"), ("b", "y"), ("c", "y")].iter().enumerate() {
            db.insert(
                0,
                vec![
                    Value::Int(i as i64 + 1),
                    Value::Text(n.to_string()),
                    Value::Text(g.to_string()),
                ],
            );
        }
        db
    }

    fn gold() -> Query {
        parse("SELECT name FROM t WHERE id = 1").unwrap()
    }

    const GOLD: &str = "SELECT name FROM t WHERE id = 1";
    const WRONG: &str = "SELECT name FROM t WHERE id = 2";

    /// A summary where every upstream module did its job and the vote picked a
    /// wrong sample; tests override individual fields to trigger each class.
    fn healthy_but_wrong() -> TraceSummary {
        TraceSummary {
            recall_covered: true,
            gold_in_topk: true,
            support_level: Some(Level::Detail),
            dropped_by_budget: 0,
            samples: vec![WRONG.into(), WRONG.into()],
            adapted: vec![WRONG.into(), WRONG.into()],
            fixes: vec![],
            final_sql: WRONG.into(),
        }
    }

    #[test]
    fn ex_correct_final_sql_yields_no_verdict() {
        let db = db();
        let mut t = healthy_but_wrong();
        t.final_sql = GOLD.into();
        assert_eq!(attribute(&t, &gold(), &db), None);
        // EquivalentForm counts as EX-correct too.
        t.final_sql = "SELECT name FROM t WHERE id < 2".into();
        assert_eq!(attribute(&t, &gold(), &db), None);
    }

    #[test]
    fn cascade_blames_the_first_violated_module() {
        let db = db();
        let gold = gold();
        // Recall miss outranks everything downstream, even a topk miss.
        let mut t = healthy_but_wrong();
        t.recall_covered = false;
        t.gold_in_topk = false;
        assert_eq!(attribute(&t, &gold, &db).unwrap().blame, Blame::PruningRecallMiss);

        let mut t = healthy_but_wrong();
        t.gold_in_topk = false;
        t.support_level = None;
        assert_eq!(attribute(&t, &gold, &db).unwrap().blame, Blame::SkeletonTopKMiss);

        let mut t = healthy_but_wrong();
        t.support_level = None;
        assert_eq!(attribute(&t, &gold, &db).unwrap().blame, Blame::DemoSupportGap);
    }

    #[test]
    fn adaption_regression_needs_a_correct_raw_sample_turned_wrong() {
        let db = db();
        let gold = gold();
        let mut t = healthy_but_wrong();
        t.samples = vec![GOLD.into(), WRONG.into()];
        t.adapted = vec![WRONG.into(), WRONG.into()];
        let v = attribute(&t, &gold, &db).unwrap();
        assert_eq!(v.blame, Blame::AdaptionRegression);
        assert_eq!(v.mode, FailureMode::WrongValue);
    }

    #[test]
    fn vote_misselection_needs_a_surviving_correct_sample() {
        let db = db();
        let gold = gold();
        let mut t = healthy_but_wrong();
        t.samples = vec![WRONG.into(), WRONG.into()];
        t.adapted = vec![WRONG.into(), GOLD.into()];
        assert_eq!(attribute(&t, &gold, &db).unwrap().blame, Blame::VoteMisselection);
        // Regression outranks misselection when both patterns are present.
        t.samples = vec![GOLD.into(), WRONG.into()];
        assert_eq!(attribute(&t, &gold, &db).unwrap().blame, Blame::AdaptionRegression);
    }

    #[test]
    fn hallucination_carries_the_first_fixer_category() {
        let db = db();
        let gold = gold();
        let mut t = healthy_but_wrong();
        t.fixes = vec!["missing-table".into(), "column-ambiguity".into()];
        let v = attribute(&t, &gold, &db).unwrap();
        assert_eq!(v.blame, Blame::LlmHallucination);
        assert_eq!(v.category, Some(obs::Fixer::MissingTable));

        t.fixes.clear();
        let v = attribute(&t, &gold, &db).unwrap();
        assert_eq!(v.blame, Blame::LlmHallucination);
        assert_eq!(v.category, None);
    }

    #[test]
    fn report_counts_sum_to_ex_losses_and_renders_every_class() {
        let db = db();
        let gold = gold();
        let mut report = AttributionReport::default();
        let mut t = healthy_but_wrong();
        report.add(attribute(&t, &gold, &db).as_ref()); // hallucination, no category
        t.fixes = vec!["missing-table".into()];
        report.add(attribute(&t, &gold, &db).as_ref()); // hallucination, categorized
        t.final_sql = GOLD.into();
        report.add(attribute(&t, &gold, &db).as_ref()); // EX-correct
        let mut t = healthy_but_wrong();
        t.recall_covered = false;
        report.add(attribute(&t, &gold, &db).as_ref()); // recall miss

        assert_eq!(report.total, 4);
        assert_eq!(report.ex_correct, 1);
        assert_eq!(report.blamed(), report.total - report.ex_correct);
        assert_eq!(report.count(Blame::LlmHallucination), 2);
        assert_eq!(report.llm_uncategorized, 1);
        assert_eq!(report.llm_by_category[obs::Fixer::MissingTable.index()], 1);
        assert!((report.share(Blame::LlmHallucination) - 66.7).abs() < 0.1);

        let md = report.render_markdown();
        for b in Blame::ALL {
            assert!(md.contains(b.name()), "missing row for {}", b.name());
        }
        for f in obs::Fixer::ALL {
            assert!(md.contains(f.name()), "missing category row for {}", f.name());
        }
        assert!(md.contains("uncategorized"));
    }

    #[test]
    fn blame_names_round_trip() {
        for b in Blame::ALL {
            assert_eq!(Blame::from_name(b.name()), Some(b));
            assert_eq!(Blame::ALL[b.index()], b);
        }
        assert_eq!(Blame::from_name("nope"), None);
    }
}
