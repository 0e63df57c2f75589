//! Structural diff of two [`EvalReport`]s (DESIGN.md §11).
//!
//! Given a baseline and a candidate run of the *same split*, [`diff_reports`]
//! produces per-example EM/EX/TS flip sets (regressed / fixed / unchanged),
//! aggregate metric deltas with a deterministic paired significance check
//! (McNemar with continuity correction on the flips), attribution-share shifts
//! per [`Blame`] class, and per-stage latency-histogram deltas. The diff
//! renders as a markdown dashboard ([`ReportDiff::render_markdown`]) and as
//! machine-readable JSON ([`diff_to_json`] / [`diff_from_json`]), and
//! [`gate`] turns it into a pass/fail verdict for CI regression gating.
//!
//! Everything here is a pure function of the two reports: since reports are
//! byte-identical for any `--jobs` count, so is every diff artifact.

use crate::attribution::Blame;
use crate::harness::EvalReport;
use obs::json::{self, join, quote, Value};
use obs::{Stage, NUM_BUCKETS};
use std::fmt::Write as _;

/// Flip sets and significance for one metric (EM, EX, or TS).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricDiff {
    /// Baseline hit count.
    pub base_hits: usize,
    /// Candidate hit count.
    pub cand_hits: usize,
    /// Example indices that flipped hit → miss.
    pub regressed: Vec<usize>,
    /// Example indices that flipped miss → hit.
    pub fixed: Vec<usize>,
    /// Examples that stayed hits.
    pub unchanged_hit: usize,
    /// Examples that stayed misses.
    pub unchanged_miss: usize,
    /// McNemar χ² (continuity-corrected) over the flip counts.
    pub mcnemar_chi2: f64,
    /// Two-sided p-value of the χ² statistic (1 dof); 1.0 when nothing flipped.
    pub mcnemar_p: f64,
}

impl MetricDiff {
    fn build(pairs: impl Iterator<Item = (bool, bool)>) -> MetricDiff {
        let mut d = MetricDiff::default();
        for (idx, (base, cand)) in pairs.enumerate() {
            d.base_hits += base as usize;
            d.cand_hits += cand as usize;
            match (base, cand) {
                (true, false) => d.regressed.push(idx),
                (false, true) => d.fixed.push(idx),
                (true, true) => d.unchanged_hit += 1,
                (false, false) => d.unchanged_miss += 1,
            }
        }
        (d.mcnemar_chi2, d.mcnemar_p) = mcnemar(d.regressed.len(), d.fixed.len());
        d
    }

    /// Net hit delta (candidate − baseline).
    pub fn net(&self) -> i64 {
        self.cand_hits as i64 - self.base_hits as i64
    }

    /// No example flipped either way.
    pub fn is_empty(&self) -> bool {
        self.regressed.is_empty() && self.fixed.is_empty()
    }
}

/// McNemar's test with continuity correction on discordant pair counts
/// (`b` = hit→miss, `c` = miss→hit). Returns (χ², p). Deterministic: plain
/// f64 arithmetic, no sampling.
pub fn mcnemar(b: usize, c: usize) -> (f64, f64) {
    let n = (b + c) as f64;
    if n == 0.0 {
        return (0.0, 1.0);
    }
    let num = ((b as f64 - c as f64).abs() - 1.0).max(0.0);
    let chi2 = num * num / n;
    (chi2, chi2_sf(chi2))
}

/// Survival function of χ² with one degree of freedom: `erfc(sqrt(x/2))`.
fn chi2_sf(x: f64) -> f64 {
    erfc((x / 2.0).sqrt())
}

/// Complementary error function, Abramowitz & Stegun 7.1.26 (|ε| ≤ 1.5e-7).
fn erfc(x: f64) -> f64 {
    let t = 1.0 / (1.0 + 0.3275911 * x.abs());
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    let y = poly * (-x * x).exp();
    if x >= 0.0 {
        y
    } else {
        2.0 - y
    }
}

/// One blame class's share shift between the two runs.
#[derive(Debug, Clone, PartialEq)]
pub struct BlameShift {
    /// Stable class name ([`Blame::name`]).
    pub class: String,
    /// Baseline loss count.
    pub base_count: usize,
    /// Candidate loss count.
    pub cand_count: usize,
    /// Baseline share of all EX losses, percent.
    pub base_share: f64,
    /// Candidate share of all EX losses, percent.
    pub cand_share: f64,
}

impl BlameShift {
    /// Share delta in percentage points (candidate − baseline).
    pub fn delta_share(&self) -> f64 {
        self.cand_share - self.base_share
    }
}

/// Per-stage latency-histogram delta (candidate − baseline).
#[derive(Debug, Clone, PartialEq)]
pub struct StageLatencyDelta {
    /// Stable stage name ([`Stage::name`]).
    pub stage: String,
    /// Observation-count delta.
    pub count_delta: i64,
    /// Sum-of-latencies delta.
    pub sum_delta: i64,
    /// Max-latency delta.
    pub max_delta: i64,
    /// Mean-latency delta (0 when either side has no observations).
    pub mean_delta: f64,
    /// Per-bucket count deltas.
    pub buckets: Vec<i64>,
}

impl StageLatencyDelta {
    /// Whether the two histograms were identical.
    pub fn is_zero(&self) -> bool {
        self.count_delta == 0
            && self.sum_delta == 0
            && self.max_delta == 0
            && self.buckets.iter().all(|&b| b == 0)
    }
}

/// The structural diff of two evaluation reports over the same split.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportDiff {
    /// Label of the baseline run (usually its registry run id).
    pub baseline: String,
    /// Label of the candidate run.
    pub candidate: String,
    /// Baseline system name.
    pub base_system: String,
    /// Candidate system name.
    pub cand_system: String,
    /// Split both runs evaluated.
    pub split: String,
    /// Examples compared.
    pub n: usize,
    /// Whether either run computed TS (TS flips are meaningful only if both did).
    pub has_ts: bool,
    /// EM flip sets.
    pub em: MetricDiff,
    /// EX flip sets.
    pub ex: MetricDiff,
    /// TS flip sets.
    pub ts: MetricDiff,
    /// Average prompt-token delta (candidate − baseline).
    pub avg_prompt_tokens_delta: f64,
    /// Average output-token delta (candidate − baseline).
    pub avg_output_tokens_delta: f64,
    /// Per-class blame shifts; empty when either run lacks attribution.
    pub blame: Vec<BlameShift>,
    /// Per-stage latency deltas, one entry per [`Stage`], in declaration order.
    pub latency: Vec<StageLatencyDelta>,
}

impl ReportDiff {
    /// An all-zero diff: no flips, no aggregate deltas, no blame or latency
    /// movement. Two archives of the identical configuration must satisfy this.
    pub fn is_empty(&self) -> bool {
        self.em.is_empty()
            && self.ex.is_empty()
            && self.ts.is_empty()
            && self.avg_prompt_tokens_delta == 0.0
            && self.avg_output_tokens_delta == 0.0
            && self.blame.iter().all(|b| b.base_count == b.cand_count)
            && self.latency.iter().all(|l| l.is_zero())
    }

    /// Render the diff as a markdown dashboard: headline metric table,
    /// flip-set summaries, per-module blame-shift table (paper-style), and
    /// latency movement. Byte-identical for byte-identical inputs.
    pub fn render_markdown(&self) -> String {
        let mut s = String::with_capacity(2048);
        let _ = writeln!(s, "# Run diff: `{}` → `{}`", self.baseline, self.candidate);
        let _ = writeln!(s);
        let _ = writeln!(
            s,
            "Baseline **{}** vs candidate **{}** on split `{}` ({} examples).",
            self.base_system, self.cand_system, self.split, self.n
        );
        let _ = writeln!(s);
        if self.is_empty() {
            let _ = writeln!(s, "**All-zero diff**: the runs are identical.");
            let _ = writeln!(s);
        }
        let _ = writeln!(s, "## Metrics");
        let _ = writeln!(s);
        let _ = writeln!(
            s,
            "| metric | baseline | candidate | net | regressed | fixed | McNemar χ² | p |"
        );
        let _ = writeln!(s, "|---|---:|---:|---:|---:|---:|---:|---:|");
        let rows: &[(&str, &MetricDiff)] = if self.has_ts {
            &[("EM", &self.em), ("EX", &self.ex), ("TS", &self.ts)]
        } else {
            &[("EM", &self.em), ("EX", &self.ex)]
        };
        for (name, m) in rows {
            let _ = writeln!(
                s,
                "| {name} | {}/{n} | {}/{n} | {:+} | {} | {} | {:.3} | {:.4} |",
                m.base_hits,
                m.cand_hits,
                m.net(),
                m.regressed.len(),
                m.fixed.len(),
                m.mcnemar_chi2,
                m.mcnemar_p,
                n = self.n,
            );
        }
        let _ = writeln!(s);
        let _ = writeln!(
            s,
            "Token averages: prompt {:+.2}, output {:+.2} per query.",
            self.avg_prompt_tokens_delta, self.avg_output_tokens_delta
        );
        let _ = writeln!(s);
        for (name, m) in rows {
            if m.is_empty() {
                continue;
            }
            let _ = writeln!(s, "### {name} flips");
            let _ = writeln!(s);
            let _ = writeln!(s, "- regressed ({}): {}", m.regressed.len(), idx_list(&m.regressed));
            let _ = writeln!(s, "- fixed ({}): {}", m.fixed.len(), idx_list(&m.fixed));
            let _ =
                writeln!(s, "- unchanged: {} hits, {} misses", m.unchanged_hit, m.unchanged_miss);
            let _ = writeln!(s);
        }
        if !self.blame.is_empty() {
            let _ = writeln!(s, "## Failure attribution shift");
            let _ = writeln!(s);
            let _ = writeln!(
                s,
                "| blame class | base losses | cand losses | base share | cand share | Δ share |"
            );
            let _ = writeln!(s, "|---|---:|---:|---:|---:|---:|");
            for b in &self.blame {
                let _ = writeln!(
                    s,
                    "| {} | {} | {} | {:.1}% | {:.1}% | {:+.1}pp |",
                    b.class,
                    b.base_count,
                    b.cand_count,
                    b.base_share,
                    b.cand_share,
                    b.delta_share()
                );
            }
            let _ = writeln!(s);
        }
        let moved: Vec<&StageLatencyDelta> = self.latency.iter().filter(|l| !l.is_zero()).collect();
        let _ = writeln!(s, "## Latency movement");
        let _ = writeln!(s);
        if moved.is_empty() {
            let _ = writeln!(s, "No latency-histogram changes.");
        } else {
            let _ = writeln!(s, "| stage | Δ calls | Δ sum | Δ max | Δ mean |");
            let _ = writeln!(s, "|---|---:|---:|---:|---:|");
            for l in moved {
                let _ = writeln!(
                    s,
                    "| {} | {:+} | {:+} | {:+} | {:+.1} |",
                    l.stage, l.count_delta, l.sum_delta, l.max_delta, l.mean_delta
                );
            }
        }
        s
    }
}

/// Render up to 20 example indices, eliding the rest.
fn idx_list(indices: &[usize]) -> String {
    const SHOWN: usize = 20;
    if indices.is_empty() {
        return "none".to_string();
    }
    let mut s = String::new();
    for (i, idx) in indices.iter().take(SHOWN).enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(s, "#{idx}");
    }
    if indices.len() > SHOWN {
        let _ = write!(s, ", … ({} more)", indices.len() - SHOWN);
    }
    s
}

/// Diff two reports of the same split.
///
/// Errors when the runs are not comparable: different splits, different
/// example counts, or either report predates per-example capture (schema v1).
pub fn diff_reports(
    base_label: &str,
    base: &EvalReport,
    cand_label: &str,
    cand: &EvalReport,
) -> Result<ReportDiff, String> {
    if base.split != cand.split {
        return Err(format!(
            "cannot diff runs over different splits: baseline `{}` vs candidate `{}`",
            base.split, cand.split
        ));
    }
    if base.examples.is_empty() && base.overall.n > 0 {
        return Err(format!(
            "baseline `{base_label}` has no per-example outcomes (schema-v1 archive); re-archive it with this binary"
        ));
    }
    if cand.examples.is_empty() && cand.overall.n > 0 {
        return Err(format!(
            "candidate `{cand_label}` has no per-example outcomes (schema-v1 archive)"
        ));
    }
    if base.examples.len() != cand.examples.len() {
        return Err(format!(
            "example counts differ: baseline {} vs candidate {} (different scale or split revision)",
            base.examples.len(),
            cand.examples.len()
        ));
    }
    let pairs = |f: fn(&crate::harness::ExampleOutcome) -> bool| {
        base.examples.iter().zip(&cand.examples).map(move |(b, c)| (f(b), f(c)))
    };
    let blame = match (&base.attribution, &cand.attribution) {
        (Some(b), Some(c)) => Blame::ALL
            .into_iter()
            .map(|class| BlameShift {
                class: class.name().to_string(),
                base_count: b.count(class),
                cand_count: c.count(class),
                base_share: b.share(class),
                cand_share: c.share(class),
            })
            .collect(),
        _ => Vec::new(),
    };
    let latency = Stage::REPORT
        .into_iter()
        .map(|stage| {
            let (bh, ch) = (&base.metrics.stage(stage).latency, &cand.metrics.stage(stage).latency);
            let mean = |h: &obs::Histogram| {
                if h.count == 0 {
                    0.0
                } else {
                    h.sum as f64 / h.count as f64
                }
            };
            StageLatencyDelta {
                stage: stage.name().to_string(),
                count_delta: ch.count as i64 - bh.count as i64,
                sum_delta: ch.sum as i64 - bh.sum as i64,
                max_delta: ch.max as i64 - bh.max as i64,
                mean_delta: mean(ch) - mean(bh),
                buckets: (0..NUM_BUCKETS)
                    .map(|i| ch.buckets[i] as i64 - bh.buckets[i] as i64)
                    .collect(),
            }
        })
        .collect();
    Ok(ReportDiff {
        baseline: base_label.to_string(),
        candidate: cand_label.to_string(),
        base_system: base.system.clone(),
        cand_system: cand.system.clone(),
        split: base.split.clone(),
        n: base.examples.len(),
        has_ts: base.has_ts && cand.has_ts,
        em: MetricDiff::build(pairs(|o| o.em)),
        ex: MetricDiff::build(pairs(|o| o.ex)),
        ts: MetricDiff::build(pairs(|o| o.ts)),
        avg_prompt_tokens_delta: cand.avg_prompt_tokens - base.avg_prompt_tokens,
        avg_output_tokens_delta: cand.avg_output_tokens - base.avg_output_tokens,
        blame,
        latency,
    })
}

// ---------------------------------------------------------------------------
// Regression gate
// ---------------------------------------------------------------------------

/// Thresholds for [`gate`]: how much movement a candidate run may show before
/// the gate fails. Defaults are strict: any EX or TS regression fails; a blame
/// class may grow its EX-loss share by at most 10 percentage points.
#[derive(Debug, Clone, PartialEq)]
pub struct GateConfig {
    /// Maximum tolerated EX hit→miss flips.
    pub max_ex_regressions: usize,
    /// Maximum tolerated TS hit→miss flips.
    pub max_ts_regressions: usize,
    /// Maximum tolerated blame-share increase, in percentage points.
    pub max_blame_share_increase: f64,
}

impl Default for GateConfig {
    fn default() -> Self {
        GateConfig { max_ex_regressions: 0, max_ts_regressions: 0, max_blame_share_increase: 10.0 }
    }
}

/// Gate verdict: pass/fail plus one human-readable line per violation.
#[derive(Debug, Clone, PartialEq)]
pub struct GateOutcome {
    /// Whether every threshold held.
    pub passed: bool,
    /// Violated thresholds, in evaluation order.
    pub violations: Vec<String>,
}

/// Check a diff against gate thresholds. Deterministic: a pure function of
/// the diff and the config.
pub fn gate(diff: &ReportDiff, cfg: &GateConfig) -> GateOutcome {
    let mut violations = Vec::new();
    if diff.ex.regressed.len() > cfg.max_ex_regressions {
        violations.push(format!(
            "EX regressions: {} examples flipped hit→miss (allowed {}) — {}",
            diff.ex.regressed.len(),
            cfg.max_ex_regressions,
            idx_list(&diff.ex.regressed)
        ));
    }
    if diff.has_ts && diff.ts.regressed.len() > cfg.max_ts_regressions {
        violations.push(format!(
            "TS regressions: {} examples flipped hit→miss (allowed {}) — {}",
            diff.ts.regressed.len(),
            cfg.max_ts_regressions,
            idx_list(&diff.ts.regressed)
        ));
    }
    for b in &diff.blame {
        if b.delta_share() > cfg.max_blame_share_increase {
            violations.push(format!(
                "blame-share blowup: `{}` grew {:.1}pp ({:.1}% → {:.1}%, allowed {:+.1}pp)",
                b.class,
                b.delta_share(),
                b.base_share,
                b.cand_share,
                cfg.max_blame_share_increase
            ));
        }
    }
    GateOutcome { passed: violations.is_empty(), violations }
}

// ---------------------------------------------------------------------------
// JSON codec (machine-readable dashboard)
// ---------------------------------------------------------------------------

/// Serialize a diff to a JSON object string. `f64` fields use `{:?}` (shortest
/// round-trippable form), so [`diff_from_json`] recovers them bit-exactly and
/// equal diffs always produce byte-identical text.
pub fn diff_to_json(d: &ReportDiff) -> String {
    let mut out = String::with_capacity(1024);
    out.push('{');
    let _ = write!(out, "\"baseline\":{},", quote(&d.baseline));
    let _ = write!(out, "\"candidate\":{},", quote(&d.candidate));
    let _ = write!(out, "\"base_system\":{},", quote(&d.base_system));
    let _ = write!(out, "\"cand_system\":{},", quote(&d.cand_system));
    let _ = write!(out, "\"split\":{},", quote(&d.split));
    let _ = write!(out, "\"n\":{},", d.n);
    let _ = write!(out, "\"has_ts\":{},", d.has_ts);
    for (name, m) in [("em", &d.em), ("ex", &d.ex), ("ts", &d.ts)] {
        let _ = write!(out, "\"{name}\":{},", metric_to_json(m));
    }
    let _ = write!(out, "\"avg_prompt_tokens_delta\":{:?},", d.avg_prompt_tokens_delta);
    let _ = write!(out, "\"avg_output_tokens_delta\":{:?},", d.avg_output_tokens_delta);
    out.push_str("\"blame\":[");
    join(&mut out, &d.blame, |out, b| {
        write!(
            out,
            "{{\"class\":{},\"base_count\":{},\"cand_count\":{},\"base_share\":{:?},\"cand_share\":{:?}}}",
            quote(&b.class),
            b.base_count,
            b.cand_count,
            b.base_share,
            b.cand_share
        )
    });
    out.push_str("],\"latency\":[");
    join(&mut out, &d.latency, |out, l| {
        write!(
            out,
            "{{\"stage\":{},\"count_delta\":{},\"sum_delta\":{},\"max_delta\":{},\"mean_delta\":{:?},\"buckets\":[",
            quote(&l.stage),
            l.count_delta,
            l.sum_delta,
            l.max_delta,
            l.mean_delta
        )?;
        join(out, &l.buckets, |out, b| write!(out, "{b}"));
        out.write_str("]}")
    });
    out.push_str("]}");
    out
}

fn metric_to_json(m: &MetricDiff) -> String {
    let mut out = String::with_capacity(128);
    let _ = write!(out, "{{\"base_hits\":{},\"cand_hits\":{},", m.base_hits, m.cand_hits);
    for (name, set) in [("regressed", &m.regressed), ("fixed", &m.fixed)] {
        let _ = write!(out, "\"{name}\":[");
        join(&mut out, set, |out, idx| write!(out, "{idx}"));
        out.push_str("],");
    }
    let _ = write!(
        out,
        "\"unchanged_hit\":{},\"unchanged_miss\":{},\"mcnemar_chi2\":{:?},\"mcnemar_p\":{:?}}}",
        m.unchanged_hit, m.unchanged_miss, m.mcnemar_chi2, m.mcnemar_p
    );
    out
}

/// Parse a diff written by [`diff_to_json`].
pub fn diff_from_json(text: &str) -> Result<ReportDiff, String> {
    let value = json::parse(text)?;
    let obj = value.as_object("diff")?;
    let mut d = ReportDiff {
        baseline: String::new(),
        candidate: String::new(),
        base_system: String::new(),
        cand_system: String::new(),
        split: String::new(),
        n: 0,
        has_ts: false,
        em: MetricDiff::default(),
        ex: MetricDiff::default(),
        ts: MetricDiff::default(),
        avg_prompt_tokens_delta: 0.0,
        avg_output_tokens_delta: 0.0,
        blame: Vec::new(),
        latency: Vec::new(),
    };
    for (key, val) in obj {
        match key.as_str() {
            "baseline" => d.baseline = val.as_string(key)?,
            "candidate" => d.candidate = val.as_string(key)?,
            "base_system" => d.base_system = val.as_string(key)?,
            "cand_system" => d.cand_system = val.as_string(key)?,
            "split" => d.split = val.as_string(key)?,
            "n" => d.n = val.as_num(key)?,
            "has_ts" => d.has_ts = val.as_bool(key)?,
            "em" => d.em = metric_from_value(val)?,
            "ex" => d.ex = metric_from_value(val)?,
            "ts" => d.ts = metric_from_value(val)?,
            "avg_prompt_tokens_delta" => d.avg_prompt_tokens_delta = val.as_num(key)?,
            "avg_output_tokens_delta" => d.avg_output_tokens_delta = val.as_num(key)?,
            "blame" => {
                for item in val.as_array("blame")? {
                    let obj = item.as_object("blame[i]")?;
                    let mut b = BlameShift {
                        class: String::new(),
                        base_count: 0,
                        cand_count: 0,
                        base_share: 0.0,
                        cand_share: 0.0,
                    };
                    for (k, v) in obj {
                        match k.as_str() {
                            "class" => b.class = v.as_string(k)?,
                            "base_count" => b.base_count = v.as_num(k)?,
                            "cand_count" => b.cand_count = v.as_num(k)?,
                            "base_share" => b.base_share = v.as_num(k)?,
                            "cand_share" => b.cand_share = v.as_num(k)?,
                            other => return Err(format!("unknown blame field `{other}`")),
                        }
                    }
                    d.blame.push(b);
                }
            }
            "latency" => {
                for item in val.as_array("latency")? {
                    let obj = item.as_object("latency[i]")?;
                    let mut l = StageLatencyDelta {
                        stage: String::new(),
                        count_delta: 0,
                        sum_delta: 0,
                        max_delta: 0,
                        mean_delta: 0.0,
                        buckets: Vec::new(),
                    };
                    for (k, v) in obj {
                        match k.as_str() {
                            "stage" => l.stage = v.as_string(k)?,
                            "count_delta" => l.count_delta = v.as_num(k)?,
                            "sum_delta" => l.sum_delta = v.as_num(k)?,
                            "max_delta" => l.max_delta = v.as_num(k)?,
                            "mean_delta" => l.mean_delta = v.as_num(k)?,
                            "buckets" => {
                                l.buckets = v
                                    .as_array("buckets")?
                                    .iter()
                                    .map(|b| b.as_num("buckets[i]"))
                                    .collect::<Result<_, _>>()?;
                            }
                            other => return Err(format!("unknown latency field `{other}`")),
                        }
                    }
                    d.latency.push(l);
                }
            }
            other => return Err(format!("unknown diff field `{other}`")),
        }
    }
    Ok(d)
}

fn metric_from_value(value: &Value) -> Result<MetricDiff, String> {
    let obj = value.as_object("metric diff")?;
    let mut m = MetricDiff::default();
    for (key, val) in obj {
        match key.as_str() {
            "base_hits" => m.base_hits = val.as_num(key)?,
            "cand_hits" => m.cand_hits = val.as_num(key)?,
            "regressed" => m.regressed = idx_vec(val)?,
            "fixed" => m.fixed = idx_vec(val)?,
            "unchanged_hit" => m.unchanged_hit = val.as_num(key)?,
            "unchanged_miss" => m.unchanged_miss = val.as_num(key)?,
            "mcnemar_chi2" => m.mcnemar_chi2 = val.as_num(key)?,
            "mcnemar_p" => m.mcnemar_p = val.as_num(key)?,
            other => return Err(format!("unknown metric-diff field `{other}`")),
        }
    }
    Ok(m)
}

fn idx_vec(value: &Value) -> Result<Vec<usize>, String> {
    value.as_array("flip set")?.iter().map(|v| v.as_num("flip index")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{Bucket, ExampleOutcome};
    use crate::AttributionReport;
    use obs::StageMetrics;

    fn report(name: &str, outcomes: &[(bool, bool, bool)]) -> EvalReport {
        let examples: Vec<ExampleOutcome> = outcomes
            .iter()
            .enumerate()
            .map(|(i, &(em, ex, ts))| ExampleOutcome { em, ex, ts, hardness: (i % 4) as u8 })
            .collect();
        let mut overall = Bucket::default();
        for e in &examples {
            overall.n += 1;
            overall.em += e.em as usize;
            overall.ex += e.ex as usize;
            overall.ts += e.ts as usize;
        }
        EvalReport {
            system: name.into(),
            split: "dev".into(),
            overall,
            by_hardness: [Bucket::default(); 4],
            avg_prompt_tokens: 100.0,
            avg_output_tokens: 10.0,
            has_ts: true,
            metrics: StageMetrics::default(),
            attribution: None,
            examples,
        }
    }

    #[test]
    fn self_diff_is_empty() {
        let a = report("A", &[(true, true, true), (false, false, false), (true, false, true)]);
        let d = diff_reports("x", &a, "y", &a).unwrap();
        assert!(d.is_empty(), "{d:?}");
        assert_eq!(d.em.mcnemar_p, 1.0);
        assert!(gate(&d, &GateConfig::default()).passed);
        assert!(d.render_markdown().contains("All-zero diff"));
    }

    #[test]
    fn flip_sets_partition_examples() {
        let a = report("A", &[(true, true, false), (false, true, true), (true, false, false)]);
        let b = report("B", &[(false, true, true), (true, false, false), (true, false, false)]);
        let d = diff_reports("a", &a, "b", &b).unwrap();
        for m in [&d.em, &d.ex, &d.ts] {
            assert_eq!(m.regressed.len() + m.fixed.len() + m.unchanged_hit + m.unchanged_miss, d.n);
        }
        assert_eq!(d.em.regressed, vec![0]);
        assert_eq!(d.em.fixed, vec![1]);
        assert_eq!(d.ex.regressed, vec![1]);
    }

    #[test]
    fn diff_is_antisymmetric() {
        let a = report("A", &[(true, true, false), (false, true, true), (true, false, false)]);
        let b = report("B", &[(false, false, true), (true, true, true), (true, true, false)]);
        let ab = diff_reports("a", &a, "b", &b).unwrap();
        let ba = diff_reports("b", &b, "a", &a).unwrap();
        for (x, y) in [(&ab.em, &ba.em), (&ab.ex, &ba.ex), (&ab.ts, &ba.ts)] {
            assert_eq!(x.regressed, y.fixed);
            assert_eq!(x.fixed, y.regressed);
            assert_eq!(x.net(), -y.net());
            assert_eq!(x.mcnemar_chi2, y.mcnemar_chi2, "χ² is symmetric in b,c");
        }
        assert_eq!(ab.avg_prompt_tokens_delta, -ba.avg_prompt_tokens_delta);
    }

    #[test]
    fn json_round_trips_bit_exact() {
        let a = report("A", &[(true, true, false), (false, true, true)]);
        let mut b = report("B", &[(false, true, true), (true, false, false)]);
        b.avg_prompt_tokens = 133.33333333333334;
        b.attribution = Some(AttributionReport::default());
        let mut a2 = a.clone();
        a2.attribution = Some(AttributionReport { total: 2, ex_correct: 1, ..Default::default() });
        let d = diff_reports("base", &a2, "cand", &b).unwrap();
        let json = diff_to_json(&d);
        let back = diff_from_json(&json).unwrap();
        assert_eq!(d, back);
        assert_eq!(json, diff_to_json(&back), "re-serialization is byte-identical");
        assert!(diff_from_json("{\"bogus\":1}").is_err());
        assert!(diff_from_json("{").is_err());
    }

    #[test]
    fn incompatible_reports_are_rejected() {
        let a = report("A", &[(true, true, true)]);
        let b = report("B", &[(true, true, true), (false, false, false)]);
        assert!(diff_reports("a", &a, "b", &b).unwrap_err().contains("example counts differ"));
        let mut c = a.clone();
        c.split = "dk".into();
        assert!(diff_reports("a", &a, "c", &c).unwrap_err().contains("different splits"));
        let mut v1 = a.clone();
        v1.examples.clear();
        assert!(diff_reports("v1", &v1, "a", &a).unwrap_err().contains("per-example"));
    }

    #[test]
    fn mcnemar_matches_reference_values() {
        // b=c: continuity-corrected statistic shrinks but stays symmetric.
        let (chi2, p) = mcnemar(0, 0);
        assert_eq!((chi2, p), (0.0, 1.0));
        let (chi2, p) = mcnemar(10, 2);
        // ((|10-2|-1)^2)/12 = 49/12 ≈ 4.0833; p ≈ 0.0433.
        assert!((chi2 - 49.0 / 12.0).abs() < 1e-12);
        assert!((p - 0.0433).abs() < 2e-3, "p={p}");
        // Larger asymmetry → smaller p.
        let (_, p_big) = mcnemar(30, 2);
        assert!(p_big < p);
    }

    #[test]
    fn gate_trips_on_regressions_and_blame_blowup() {
        let a = report("A", &[(true, true, true), (true, true, true)]);
        let b = report("B", &[(true, false, false), (true, true, true)]);
        let d = diff_reports("a", &a, "b", &b).unwrap();
        let out = gate(&d, &GateConfig::default());
        assert!(!out.passed);
        assert_eq!(out.violations.len(), 2, "EX and TS each violated: {:?}", out.violations);
        // Loosened thresholds pass.
        let loose =
            GateConfig { max_ex_regressions: 1, max_ts_regressions: 1, ..Default::default() };
        assert!(gate(&d, &loose).passed);

        // Blame-share blowup on otherwise flat metrics.
        let mut base = report("A", &[(true, false, false); 4]);
        let mut cand = base.clone();
        cand.system = "B".into();
        let mut ab = AttributionReport { total: 4, ex_correct: 0, ..Default::default() };
        ab.counts[Blame::PruningRecallMiss.index()] = 4;
        let mut cb = AttributionReport { total: 4, ex_correct: 0, ..Default::default() };
        cb.counts[Blame::LlmHallucination.index()] = 4;
        base.attribution = Some(ab);
        cand.attribution = Some(cb);
        let d = diff_reports("a", &base, "b", &cand).unwrap();
        let out = gate(&d, &GateConfig::default());
        assert!(!out.passed);
        assert!(out.violations[0].contains("llm-hallucination"), "{:?}", out.violations);
    }
}
