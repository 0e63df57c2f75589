//! JSON persistence for [`EvalReport`], its metrics and its attribution,
//! written and read through [`obs::json`], so reports survive a round trip
//! through disk or pipes.

use crate::attribution::{AttributionReport, Blame};
use crate::harness::{Bucket, EvalReport, ExampleOutcome};
use obs::json::{self, join, quote, Value};
use obs::{Clock, Counter, Fixer, Gauge, GaugeSlot, Histogram, Stage, StageMetrics, NUM_BUCKETS};
use std::fmt::Write as _;

/// The report schema version this codec writes. v1 predates `schema_version`
/// and per-example outcomes; a missing `schema_version` on read means v1.
/// Future versions are rejected with a descriptive error so archived runs from
/// a newer binary never decode silently wrong.
pub const REPORT_SCHEMA_VERSION: u64 = 2;

/// Serialize a report to a JSON object string.
///
/// Field order matches struct declaration order. `f64` fields are written with
/// enough precision ({:?}, i.e. shortest round-trippable form) that
/// [`report_from_json`] recovers them bit-exactly.
pub fn report_to_json(report: &EvalReport) -> String {
    let mut out = String::with_capacity(256);
    out.push('{');
    write!(out, "\"schema_version\":{REPORT_SCHEMA_VERSION},").unwrap();
    write!(out, "\"system\":{},", quote(&report.system)).unwrap();
    write!(out, "\"split\":{},", quote(&report.split)).unwrap();
    write!(out, "\"overall\":{},", bucket_to_json(&report.overall)).unwrap();
    out.push_str("\"by_hardness\":[");
    join(&mut out, &report.by_hardness, |out, b| out.write_str(&bucket_to_json(b)));
    out.push_str("],");
    write!(out, "\"avg_prompt_tokens\":{:?},", report.avg_prompt_tokens).unwrap();
    write!(out, "\"avg_output_tokens\":{:?},", report.avg_output_tokens).unwrap();
    write!(out, "\"has_ts\":{},", report.has_ts).unwrap();
    write!(out, "\"metrics\":{},", metrics_to_json(&report.metrics)).unwrap();
    match &report.attribution {
        Some(a) => write!(out, "\"attribution\":{},", attribution_to_json(a)).unwrap(),
        None => out.push_str("\"attribution\":null,"),
    }
    // Per-example outcomes, packed (bit 0 EM, bit 1 EX, bit 2 TS, bits 3.. hardness).
    out.push_str("\"examples\":[");
    join(&mut out, &report.examples, |out, e| write!(out, "{}", e.pack()));
    out.push_str("]}");
    out
}

/// Serialize an [`AttributionReport`] to a JSON object string. Blame classes
/// and error categories are keyed by their stable names in declaration order.
pub fn attribution_to_json(a: &AttributionReport) -> String {
    let mut out = String::with_capacity(256);
    write!(out, "{{\"total\":{},\"ex_correct\":{},", a.total, a.ex_correct).unwrap();
    out.push_str("\"counts\":{");
    join(&mut out, Blame::ALL, |out, blame| {
        write!(out, "{}:{}", quote(blame.name()), a.count(blame))
    });
    out.push_str("},\"llm_by_category\":{");
    join(&mut out, Fixer::ALL, |out, fixer| {
        write!(out, "{}:{}", quote(fixer.name()), a.llm_by_category[fixer.index()])
    });
    write!(out, "}},\"llm_uncategorized\":{}}}", a.llm_uncategorized).unwrap();
    out
}

/// Parse a standalone attribution document written by [`attribution_to_json`].
pub fn attribution_from_json(text: &str) -> Result<AttributionReport, String> {
    attribution_from_value(&json::parse(text)?)
}

fn attribution_from_value(value: &Value) -> Result<AttributionReport, String> {
    let obj = value.as_object("attribution")?;
    let mut a = AttributionReport::default();
    for (key, val) in obj {
        match key.as_str() {
            "total" => a.total = val.as_num(key)?,
            "ex_correct" => a.ex_correct = val.as_num(key)?,
            "counts" => {
                for (name, v) in val.as_object("counts")? {
                    let blame = Blame::from_name(name)
                        .ok_or_else(|| format!("unknown blame class `{name}`"))?;
                    a.counts[blame.index()] = v.as_num(name)?;
                }
            }
            "llm_by_category" => {
                for (name, v) in val.as_object("llm_by_category")? {
                    let fixer = Fixer::from_name(name)
                        .ok_or_else(|| format!("unknown category `{name}`"))?;
                    a.llm_by_category[fixer.index()] = v.as_num(name)?;
                }
            }
            "llm_uncategorized" => a.llm_uncategorized = val.as_num(key)?,
            other => return Err(format!("unknown attribution field `{other}`")),
        }
    }
    Ok(a)
}

/// Serialize a [`StageMetrics`] snapshot to a JSON object string.
///
/// Stages, fixers, counters, and gauges are keyed by their stable names
/// ([`Stage::name`] etc.) and written in declaration order, so equal snapshots
/// always produce byte-identical text; an unset gauge is written as `null`.
pub fn metrics_to_json(m: &StageMetrics) -> String {
    let mut out = String::with_capacity(1024);
    out.push('{');
    write!(out, "\"clock\":{},", quote(m.clock.name())).unwrap();
    out.push_str("\"stages\":{");
    join(&mut out, Stage::REPORT, |out, stage| {
        let s = m.stage(stage);
        let latency = histogram_to_json(&s.latency);
        write!(out, "{}:{{\"calls\":{},\"latency\":{latency}}}", quote(stage.name()), s.calls)
    });
    out.push_str("},\"fixers\":{");
    join(&mut out, Fixer::ALL, |out, fixer| {
        let f = m.fixer(fixer);
        let name = quote(fixer.name());
        write!(out, "{name}:{{\"hits\":{},\"successes\":{}}}", f.hits, f.successes)
    });
    out.push_str("},\"counters\":{");
    join(&mut out, Counter::REPORT, |out, counter| {
        write!(out, "{}:{}", quote(counter.name()), m.counter(counter))
    });
    out.push_str("},\"gauges\":{");
    join(&mut out, Gauge::REPORT, |out, gauge| match m.gauge(gauge) {
        Some(v) => write!(out, "{}:{v}", quote(gauge.name())),
        None => write!(out, "{}:null", quote(gauge.name())),
    });
    out.push_str("}}");
    out
}

fn histogram_to_json(h: &Histogram) -> String {
    let mut out = String::with_capacity(128);
    out.push_str("{\"buckets\":[");
    join(&mut out, &h.buckets, |out, b| write!(out, "{b}"));
    write!(out, "],\"count\":{},\"sum\":{},\"max\":{}}}", h.count, h.sum, h.max).unwrap();
    out
}

fn bucket_to_json(b: &Bucket) -> String {
    format!("{{\"n\":{},\"em\":{},\"ex\":{},\"ts\":{}}}", b.n, b.em, b.ex, b.ts)
}

/// Parse a report written by [`report_to_json`] (or any equivalent JSON object;
/// field order does not matter, unknown fields are rejected).
///
/// A document without `schema_version` is read as v1 (no per-example
/// outcomes); a version newer than [`REPORT_SCHEMA_VERSION`] is rejected so
/// archives written by a future binary fail loudly instead of decoding wrong.
pub fn report_from_json(text: &str) -> Result<EvalReport, String> {
    let value = json::parse(text)?;
    let obj = value.as_object("report")?;
    // Validate the version before anything else so a future archive produces
    // "unsupported schema_version", not "unknown field".
    if let Some(v) = obj.get("schema_version") {
        let v: u64 = v.as_num("schema_version")?;
        if v == 0 || v > REPORT_SCHEMA_VERSION {
            return Err(format!(
                "unsupported report schema_version {v}; this binary reads versions 1..={REPORT_SCHEMA_VERSION}"
            ));
        }
    }
    let mut report = EvalReport {
        system: String::new(),
        split: String::new(),
        overall: Bucket::default(),
        by_hardness: [Bucket::default(); 4],
        avg_prompt_tokens: 0.0,
        avg_output_tokens: 0.0,
        has_ts: false,
        metrics: StageMetrics::default(),
        attribution: None,
        examples: Vec::new(),
    };
    for (key, val) in obj {
        match key.as_str() {
            "schema_version" => {}
            "system" => report.system = val.as_string("system")?,
            "split" => report.split = val.as_string("split")?,
            "overall" => report.overall = bucket_from_value(val, "overall")?,
            "by_hardness" => {
                let items = val.as_array("by_hardness")?;
                if items.len() != 4 {
                    return Err(format!("by_hardness has {} entries, expected 4", items.len()));
                }
                for (i, item) in items.iter().enumerate() {
                    report.by_hardness[i] = bucket_from_value(item, "by_hardness[i]")?;
                }
            }
            "avg_prompt_tokens" => report.avg_prompt_tokens = val.as_num("avg_prompt_tokens")?,
            "avg_output_tokens" => report.avg_output_tokens = val.as_num("avg_output_tokens")?,
            "has_ts" => report.has_ts = val.as_bool("has_ts")?,
            "metrics" => report.metrics = metrics_from_value(val)?,
            "attribution" => {
                report.attribution =
                    if val.is_null() { None } else { Some(attribution_from_value(val)?) }
            }
            "examples" => {
                let items = val.as_array("examples")?;
                report.examples = items
                    .iter()
                    .map(|item| ExampleOutcome::unpack(item.as_num("examples[i]")?))
                    .collect::<Result<Vec<_>, _>>()?;
            }
            other => return Err(format!("unknown report field `{other}`")),
        }
    }
    Ok(report)
}

/// Parse a standalone metrics document written by [`metrics_to_json`].
pub fn metrics_from_json(text: &str) -> Result<StageMetrics, String> {
    metrics_from_value(&json::parse(text)?)
}

fn metrics_from_value(value: &Value) -> Result<StageMetrics, String> {
    let obj = value.as_object("metrics")?;
    let mut m = StageMetrics::default();
    for (key, val) in obj {
        match key.as_str() {
            "clock" => {
                let name = val.as_string("clock")?;
                m.clock =
                    Clock::from_name(&name).ok_or_else(|| format!("unknown clock `{name}`"))?;
            }
            "stages" => {
                for (name, stage_val) in val.as_object("stages")? {
                    let stage =
                        Stage::from_name(name).ok_or_else(|| format!("unknown stage `{name}`"))?;
                    let entry = &mut m.stages[stage.index()];
                    for (field, v) in stage_val.as_object(name)? {
                        match field.as_str() {
                            "calls" => entry.calls = v.as_num(field)?,
                            "latency" => entry.latency = histogram_from_value(v, name)?,
                            other => return Err(format!("unknown stage field `{other}`")),
                        }
                    }
                }
            }
            "fixers" => {
                for (name, fixer_val) in val.as_object("fixers")? {
                    let fixer =
                        Fixer::from_name(name).ok_or_else(|| format!("unknown fixer `{name}`"))?;
                    let entry = &mut m.fixers[fixer.index()];
                    for (field, v) in fixer_val.as_object(name)? {
                        match field.as_str() {
                            "hits" => entry.hits = v.as_num(field)?,
                            "successes" => entry.successes = v.as_num(field)?,
                            other => return Err(format!("unknown fixer field `{other}`")),
                        }
                    }
                }
            }
            "counters" => {
                for (name, v) in val.as_object("counters")? {
                    let counter = Counter::from_name(name)
                        .ok_or_else(|| format!("unknown counter `{name}`"))?;
                    m.counters.0[counter.index()] = v.as_num(name)?;
                }
            }
            "gauges" => {
                for (name, v) in val.as_object("gauges")? {
                    let gauge =
                        Gauge::from_name(name).ok_or_else(|| format!("unknown gauge `{name}`"))?;
                    m.gauges[gauge.index()] = if v.is_null() {
                        GaugeSlot::default()
                    } else {
                        GaugeSlot { set: true, value: v.as_num(name)? }
                    };
                }
            }
            other => return Err(format!("unknown metrics field `{other}`")),
        }
    }
    Ok(m)
}

fn histogram_from_value(value: &Value, what: &str) -> Result<Histogram, String> {
    let obj = value.as_object(what)?;
    let mut h = Histogram::default();
    for (key, val) in obj {
        match key.as_str() {
            "buckets" => {
                let items = val.as_array("buckets")?;
                if items.len() != NUM_BUCKETS {
                    return Err(format!(
                        "{what}: histogram has {} buckets, expected {NUM_BUCKETS}",
                        items.len()
                    ));
                }
                for (i, item) in items.iter().enumerate() {
                    h.buckets[i] = item.as_num("buckets[i]")?;
                }
            }
            "count" => h.count = val.as_num(key)?,
            "sum" => h.sum = val.as_num(key)?,
            "max" => h.max = val.as_num(key)?,
            other => return Err(format!("unknown histogram field `{other}`")),
        }
    }
    Ok(h)
}

fn bucket_from_value(value: &Value, what: &str) -> Result<Bucket, String> {
    let obj = value.as_object(what)?;
    let mut b = Bucket::default();
    for (key, val) in obj {
        let n = val.as_num(key)?;
        match key.as_str() {
            "n" => b.n = n,
            "em" => b.em = n,
            "ex" => b.ex = n,
            "ts" => b.ts = n,
            other => return Err(format!("unknown bucket field `{other}`")),
        }
    }
    Ok(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EvalReport {
        EvalReport {
            system: "PURPLE (\"quoted\" \\ name)\n".into(),
            split: "dev — Spider".into(),
            overall: Bucket { n: 100, em: 77, ex: 81, ts: 79 },
            by_hardness: [
                Bucket { n: 25, em: 24, ex: 25, ts: 25 },
                Bucket { n: 35, em: 28, ex: 30, ts: 29 },
                Bucket { n: 25, em: 17, ex: 18, ts: 17 },
                Bucket { n: 15, em: 8, ex: 8, ts: 8 },
            ],
            avg_prompt_tokens: 5990.333333333333,
            avg_output_tokens: 27.49,
            has_ts: true,
            metrics: sample_metrics(),
            attribution: None,
            examples: vec![
                ExampleOutcome { em: true, ex: true, ts: true, hardness: 0 },
                ExampleOutcome { em: false, ex: true, ts: false, hardness: 3 },
                ExampleOutcome { em: false, ex: false, ts: false, hardness: 1 },
            ],
        }
    }

    fn sample_attribution() -> AttributionReport {
        let mut a = AttributionReport { total: 100, ex_correct: 81, ..Default::default() };
        a.counts[Blame::PruningRecallMiss.index()] = 3;
        a.counts[Blame::SkeletonTopKMiss.index()] = 4;
        a.counts[Blame::LlmHallucination.index()] = 10;
        a.counts[Blame::VoteMisselection.index()] = 2;
        a.llm_by_category[Fixer::MissingTable.index()] = 6;
        a.llm_uncategorized = 4;
        a
    }

    fn sample_metrics() -> StageMetrics {
        let mut m = StageMetrics::default();
        m.observe(Stage::SchemaPruning, 12);
        m.observe(Stage::LlmCall, 4096);
        m.observe(Stage::LlmCall, u64::MAX); // exercises the overflow bucket
        m.count(Counter::LlmCalls, 2);
        m.count(Counter::PromptTokens, 4100);
        m.record_fix(Fixer::MissingTable, true);
        m.record_fix(Fixer::SchemaHallucination, false);
        m.set_gauge(Gauge::DemosInPrompt, 4);
        // PoolSize left unset: serialized as null.
        m
    }

    #[test]
    fn round_trip_preserves_every_field() {
        let report = sample();
        let json = report_to_json(&report);
        assert!(json.contains("\"attribution\":null"), "absent attribution is null: {json}");
        assert!(
            json.starts_with(&format!("{{\"schema_version\":{REPORT_SCHEMA_VERSION},")),
            "version leads the document: {json}"
        );
        let back = report_from_json(&json).expect("parses");
        assert_eq!(report, back);
    }

    #[test]
    fn schema_versioning_accepts_v1_and_rejects_future() {
        // A v1 document (no schema_version, no examples) still parses.
        let report = sample();
        let mut v1 = report_to_json(&report);
        v1 = v1.replace(&format!("\"schema_version\":{REPORT_SCHEMA_VERSION},"), "");
        let examples_field = {
            let start = v1.find("\"examples\":").expect("examples field present");
            v1[start..v1.len() - 1].to_string() // up to the closing brace
        };
        v1 = v1.replace(&format!(",{examples_field}"), "");
        let back = report_from_json(&v1).expect("v1 parses");
        assert!(back.examples.is_empty(), "v1 has no per-example outcomes");
        assert_eq!(back.overall, report.overall);
        // An explicit v1 tag is accepted too.
        let tagged = format!("{{\"schema_version\":1,{}", &v1[1..]);
        assert!(report_from_json(&tagged).is_ok(), "explicit v1 parses");
        // Future versions are rejected with a descriptive error, not a field error.
        let future = report_to_json(&report).replace(
            &format!("\"schema_version\":{REPORT_SCHEMA_VERSION}"),
            "\"schema_version\":99",
        );
        let err = report_from_json(&future).unwrap_err();
        assert!(err.contains("unsupported report schema_version 99"), "{err}");
        assert!(err.contains(&format!("1..={REPORT_SCHEMA_VERSION}")), "{err}");
        // Version 0 is nonsense.
        let zero = report_to_json(&report).replace(
            &format!("\"schema_version\":{REPORT_SCHEMA_VERSION}"),
            "\"schema_version\":0",
        );
        assert!(report_from_json(&zero).is_err());
    }

    #[test]
    fn example_outcomes_pack_and_reject_bad_values() {
        for v in 0..32u64 {
            assert_eq!(ExampleOutcome::unpack(v).unwrap().pack(), v);
        }
        assert!(ExampleOutcome::unpack(32).is_err(), "hardness 4 is out of range");
        let json = report_to_json(&sample()).replace("\"examples\":[", "\"examples\":[255,");
        assert!(report_from_json(&json).is_err());
    }

    #[test]
    fn attribution_round_trips_standalone_and_in_reports() {
        let attribution = sample_attribution();
        let json = attribution_to_json(&attribution);
        let back = attribution_from_json(&json).expect("parses");
        assert_eq!(attribution, back);
        assert_eq!(json, attribution_to_json(&back), "re-serialization is byte-identical");
        assert!(attribution_from_json("{\"counts\":{\"warp-core-breach\":1}}").is_err());
        assert!(attribution_from_json("{\"bogus\":1}").is_err());

        let mut report = sample();
        report.attribution = Some(attribution);
        let json = report_to_json(&report);
        let back = report_from_json(&json).expect("parses");
        assert_eq!(report, back);
        assert_eq!(json, report_to_json(&back));
    }

    #[test]
    fn round_trip_is_idempotent_text() {
        let json = report_to_json(&sample());
        let again = report_to_json(&report_from_json(&json).unwrap());
        assert_eq!(json, again);
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(report_from_json("").is_err());
        assert!(report_from_json("{").is_err());
        assert!(report_from_json("[]").is_err());
        assert!(report_from_json("{\"system\":1}").is_err());
        assert!(report_from_json("{\"bogus\":true}").is_err());
        let json = report_to_json(&sample());
        assert!(report_from_json(&format!("{json}x")).is_err(), "trailing input");
    }

    #[test]
    fn accepts_whitespace_and_field_reordering() {
        let json = "{ \"has_ts\": false, \"system\": \"s\", \"split\": \"d\",\n \
                    \"overall\": {\"n\":1,\"em\":0,\"ex\":1,\"ts\":0},\n \
                    \"by_hardness\": [{\"n\":1,\"em\":0,\"ex\":1,\"ts\":0},{},{},{}],\n \
                    \"avg_prompt_tokens\": 1.5, \"avg_output_tokens\": 2 }";
        // Empty bucket objects default all counters to zero; a report with no
        // metrics section defaults to an empty snapshot.
        let report = report_from_json(json).expect("parses");
        assert_eq!(report.overall.ex, 1);
        assert_eq!(report.by_hardness[1], Bucket::default());
        assert_eq!(report.avg_prompt_tokens, 1.5);
        assert_eq!(report.avg_output_tokens, 2.0);
        assert!(report.metrics.is_empty());
    }

    #[test]
    fn metrics_round_trip_preserves_every_field() {
        let metrics = sample_metrics();
        let json = metrics_to_json(&metrics);
        assert!(json.contains("\"pool_size\":null"), "unset gauge is null: {json}");
        let back = metrics_from_json(&json).expect("parses");
        assert_eq!(metrics, back);
        assert_eq!(json, metrics_to_json(&back), "re-serialization is byte-identical");
    }

    #[test]
    fn metrics_rejects_unknown_names() {
        assert!(metrics_from_json("{\"stages\":{\"warp-drive\":{}}}").is_err());
        assert!(metrics_from_json("{\"counters\":{\"bogus\":1}}").is_err());
        assert!(metrics_from_json("{\"clock\":\"sundial\"}").is_err());
        assert!(
            metrics_from_json("{\"stages\":{\"llm-call\":{\"latency\":{\"buckets\":[1,2]}}}}")
                .is_err(),
            "wrong bucket count"
        );
    }
}
