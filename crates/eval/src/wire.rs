//! Line-delimited JSON codecs for the service boundary ([`Request`] /
//! [`Response`] and the [`ServeCommand`] verbs), written and read through
//! [`obs::json`] like every report artifact, so the wire format has no
//! external dependency and a stable, documented shape. A server decodes each
//! line once, with [`line_from_json`].
//!
//! # Request line
//!
//! ```json
//! {"id":7,"idx":3,"db_index":1,"nl":"...","sql":"...","linking_noise":0.0,"trace":false,"seed":null}
//! ```
//!
//! A request carries the example *by value* — everything a translator reads
//! (`nl`, gold `sql`, `linking_noise`) plus `db_index` naming the database
//! within the server-resident benchmark. On decode the gold `sql` is re-parsed
//! into the structural [`sqlkit::Query`] and the hardness recomputed from it,
//! so the owned [`JobSpec`] is complete without shipping the parse tree; the
//! structured NL realization is a generation-time artifact that no translator
//! reads and is not carried (decoded specs get an empty one).
//!
//! # Response line
//!
//! ```json
//! {"id":7,"idx":3,"sql":"SELECT ...","prompt_tokens":120,"output_tokens":11}
//! ```
//!
//! Responses echo the request `id` so clients can multiplex: the server may
//! answer out of order.

use crate::harness::{JobSpec, Request, Response};
use obs::json::{self, quote, Value};
use spidergen::types::{Example, Realization};
use std::fmt::Write as _;

/// A protocol command line: `{"cmd":"<verb>"}` instead of a request object.
///
/// Commands share the LDJSON stream with requests and are distinguished by
/// the `cmd` key (requests never carry one). The verbs are `metrics`, the
/// live telemetry probe answered with a Prometheus text exposition
/// (DESIGN.md §14), and `health`, the windowed SLO probe answered with one
/// JSON object (DESIGN.md §16).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeCommand {
    /// `{"cmd":"metrics"}` — return a Prometheus-style exposition of the
    /// server's counters, gauges, histograms, cache stats, and exec op stats.
    Metrics,
    /// `{"cmd":"health"}` — return the current sliding-window telemetry
    /// snapshot and SLO verdict as one JSON object.
    Health,
}

/// One protocol line, decoded: a command verb or a translation request.
#[derive(Debug, Clone)]
pub enum ServeLine {
    /// A `{"cmd":"<verb>"}` line.
    Command(ServeCommand),
    /// A request line.
    Request(Box<Request>),
}

/// Decode one protocol line with a single parse.
///
/// An object with a `cmd` key is a command: it must carry that one field,
/// naming a known verb. Any other line is decoded as a request, so the
/// request decoder's errors also cover a line that is not JSON or not an
/// object (see [`request_from_json`]).
pub fn line_from_json(text: &str) -> Result<ServeLine, String> {
    let value = json::parse(text)?;
    let obj = value.as_object("request")?;
    let Some(verb) = obj.get("cmd") else {
        return request_from_value(&value).map(|req| ServeLine::Request(Box::new(req)));
    };
    if obj.len() != 1 {
        return Err("command lines carry exactly one field, `cmd`".into());
    }
    match verb.as_string("cmd")?.as_str() {
        "metrics" => Ok(ServeLine::Command(ServeCommand::Metrics)),
        "health" => Ok(ServeLine::Command(ServeCommand::Health)),
        other => Err(format!("unknown command verb `{other}`")),
    }
}

/// Serialize a request to a single JSON line (no trailing newline).
pub fn request_to_json(req: &Request) -> String {
    let spec = &req.spec;
    let ex = &spec.example;
    let mut out = String::with_capacity(96 + ex.nl.len() + ex.sql.len());
    out.push('{');
    write!(out, "\"id\":{},", req.id).unwrap();
    write!(out, "\"idx\":{},", spec.idx).unwrap();
    write!(out, "\"db_index\":{},", ex.db_index).unwrap();
    write!(out, "\"nl\":{},", quote(&ex.nl)).unwrap();
    write!(out, "\"sql\":{},", quote(&ex.sql)).unwrap();
    write!(out, "\"linking_noise\":{:?},", ex.linking_noise).unwrap();
    write!(out, "\"trace\":{},", spec.trace).unwrap();
    match spec.seed {
        Some(s) => write!(out, "\"seed\":{s}").unwrap(),
        None => out.push_str("\"seed\":null"),
    }
    out.push('}');
    out
}

/// Parse a request line. The gold SQL is re-parsed to recover the structural
/// query; a request whose SQL does not parse is rejected (the gold query is
/// what EM/EX/TS scoring compares against, so it must be valid).
pub fn request_from_json(text: &str) -> Result<Request, String> {
    request_from_value(&json::parse(text)?)
}

fn request_from_value(value: &Value) -> Result<Request, String> {
    let obj = value.as_object("request")?;
    let mut id = None;
    let mut idx = None;
    let mut db_index = None;
    let mut nl = None;
    let mut sql = None;
    let mut linking_noise = 0.0f64;
    let mut trace = false;
    let mut seed = None;
    for (key, val) in obj {
        match key.as_str() {
            "id" => id = Some(val.as_num("id")?),
            "idx" => idx = Some(val.as_num("idx")?),
            "db_index" => db_index = Some(val.as_num("db_index")?),
            "nl" => nl = Some(val.as_string("nl")?),
            "sql" => sql = Some(val.as_string("sql")?),
            "linking_noise" => linking_noise = val.as_num("linking_noise")?,
            "trace" => trace = val.as_bool("trace")?,
            "seed" => {
                if !val.is_null() {
                    seed = Some(val.as_num("seed")?);
                }
            }
            other => return Err(format!("unknown request field `{other}`")),
        }
    }
    let id = id.ok_or("request missing `id`")?;
    let idx = idx.ok_or("request missing `idx`")?;
    let db_index = db_index.ok_or("request missing `db_index`")?;
    let nl = nl.ok_or("request missing `nl`")?;
    let sql = sql.ok_or("request missing `sql`")?;
    let query = sqlkit::parse(&sql).map_err(|e| format!("request sql does not parse: {e}"))?;
    let hardness = sqlkit::hardness(&query);
    let example = Example {
        db_index,
        nl,
        sql,
        query,
        realization: Realization::default(),
        linking_noise,
        hardness,
    };
    Ok(Request { id, spec: JobSpec { idx, example, trace, seed } })
}

/// Serialize a response to a single JSON line (no trailing newline).
pub fn response_to_json(resp: &Response) -> String {
    let mut out = String::with_capacity(64 + resp.sql.len());
    out.push('{');
    write!(out, "\"id\":{},", resp.id).unwrap();
    write!(out, "\"idx\":{},", resp.idx).unwrap();
    write!(out, "\"sql\":{},", quote(&resp.sql)).unwrap();
    write!(out, "\"prompt_tokens\":{},", resp.prompt_tokens).unwrap();
    write!(out, "\"output_tokens\":{}", resp.output_tokens).unwrap();
    out.push('}');
    out
}

/// Parse a response line.
pub fn response_from_json(text: &str) -> Result<Response, String> {
    let value = json::parse(text)?;
    let obj = value.as_object("response")?;
    let mut resp =
        Response { id: 0, idx: 0, sql: String::new(), prompt_tokens: 0, output_tokens: 0 };
    let mut seen_id = false;
    let mut seen_sql = false;
    for (key, val) in obj {
        match key.as_str() {
            "id" => {
                resp.id = val.as_num("id")?;
                seen_id = true;
            }
            "idx" => resp.idx = val.as_num("idx")?,
            "sql" => {
                resp.sql = val.as_string("sql")?;
                seen_sql = true;
            }
            "prompt_tokens" => resp.prompt_tokens = val.as_num("prompt_tokens")?,
            "output_tokens" => resp.output_tokens = val.as_num("output_tokens")?,
            other => return Err(format!("unknown response field `{other}`")),
        }
    }
    if !seen_id {
        return Err("response missing `id`".into());
    }
    if !seen_sql {
        return Err("response missing `sql`".into());
    }
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spidergen::{generate_suite, GenConfig};

    #[test]
    fn request_round_trips_over_generated_examples() {
        let suite = generate_suite(&GenConfig::tiny(31));
        for (idx, ex) in suite.dev.examples.iter().enumerate() {
            let req = Request::new(idx as u64 + 100, JobSpec::of(idx, ex).with_trace(idx % 2 == 0));
            let line = request_to_json(&req);
            let back = request_from_json(&line).expect("round trip");
            assert_eq!(back.id, req.id);
            assert_eq!(back.spec.idx, idx);
            assert_eq!(back.spec.trace, req.spec.trace);
            assert_eq!(back.spec.seed, None);
            let bex = &back.spec.example;
            assert_eq!(bex.db_index, ex.db_index);
            assert_eq!(bex.nl, ex.nl);
            assert_eq!(bex.sql, ex.sql);
            assert_eq!(bex.linking_noise, ex.linking_noise);
            // The structural query and hardness are recovered from the SQL
            // text: print -> parse must land on the same structure.
            assert_eq!(bex.query, ex.query, "parse/print round trip for {:?}", ex.sql);
            assert_eq!(bex.hardness, ex.hardness);
            // Encoding the decoded request reproduces the line byte-for-byte.
            assert_eq!(request_to_json(&back), line);
        }
    }

    #[test]
    fn request_seed_and_escapes_round_trip() {
        let suite = generate_suite(&GenConfig::tiny(31));
        let mut spec = JobSpec::of(0, &suite.dev.examples[0]).with_seed(0xdead_beef);
        spec.example.nl = "line\none \"two\"\tthree \\ four".into();
        let req = Request::new(1, spec);
        let back = request_from_json(&request_to_json(&req)).unwrap();
        assert_eq!(back.spec.seed, Some(0xdead_beef));
        assert_eq!(back.spec.example.nl, req.spec.example.nl);
    }

    #[test]
    fn request_rejects_garbage() {
        assert!(request_from_json("not json").is_err());
        assert!(request_from_json("{\"id\":1}").is_err(), "missing fields");
        assert!(
            request_from_json(
                "{\"id\":1,\"idx\":0,\"db_index\":0,\"nl\":\"q\",\"sql\":\"SELEC\",\
                 \"linking_noise\":0.0,\"trace\":false,\"seed\":null}"
            )
            .is_err(),
            "unparseable gold sql"
        );
        assert!(request_from_json("{\"id\":1,\"bogus\":2}").is_err(), "unknown field");
    }

    #[test]
    fn request_with_an_escaped_surrogate_pair_round_trips() {
        // Python's `json.dumps` writes every character outside the Basic
        // Multilingual Plane as a UTF-16 surrogate pair.
        let suite = generate_suite(&GenConfig::tiny(31));
        let req = Request::new(3, JobSpec::of(0, &suite.dev.examples[0]));
        let line = request_to_json(&req).replace(
            &format!("\"nl\":{}", quote(&req.spec.example.nl)),
            "\"nl\":\"how many \\ud83d\\ude00\"",
        );
        assert!(line.contains("\\ud83d\\ude00"), "{line}");
        let back = request_from_json(&line).expect("the escaped pair decodes");
        assert_eq!(back.spec.example.nl, "how many 😀");
        let again = request_from_json(&request_to_json(&back)).expect("round trip");
        assert_eq!(again.spec.example.nl, "how many 😀");
        assert!(request_from_json(&line.replace("\\ude00", "")).is_err(), "lone surrogate");
    }

    #[test]
    fn lines_decode_once_into_commands_or_requests() {
        let command = |line: &str| match line_from_json(line) {
            Ok(ServeLine::Command(verb)) => Ok(verb),
            Ok(ServeLine::Request(req)) => panic!("{line} decoded as request {req:?}"),
            Err(e) => Err(e),
        };
        assert_eq!(command("{\"cmd\":\"metrics\"}"), Ok(ServeCommand::Metrics));
        assert_eq!(command("{\"cmd\":\"health\"}"), Ok(ServeCommand::Health));
        // Not commands: requests, non-objects, malformed JSON. The request
        // decoder owns their error reporting.
        let suite = generate_suite(&GenConfig::tiny(31));
        let req = Request::new(9, JobSpec::of(0, &suite.dev.examples[0]));
        match line_from_json(&request_to_json(&req)) {
            Ok(ServeLine::Request(back)) => assert_eq!(back.id, 9),
            other => panic!("request line decoded as {other:?}"),
        }
        for line in ["{\"id\":1}", "[1,2]", "not json"] {
            let err = command(line).expect_err("not a request either");
            assert_eq!(Err(err), request_from_json(line).map(|_| ()), "{line}");
        }
        // Commands with problems are errors, not fall-throughs.
        let err = command("{\"cmd\":\"reboot\"}").unwrap_err();
        assert!(err.contains("unknown command verb `reboot`"), "{err}");
        let err = command("{\"cmd\":\"metrics\",\"x\":1}").unwrap_err();
        assert!(err.contains("exactly one field"), "{err}");
        assert_eq!(command("{\"cmd\":7}"), Err("cmd: expected string".into()));
    }

    #[test]
    fn response_round_trips() {
        let resp = Response {
            id: 42,
            idx: 7,
            sql: "SELECT \"a\" FROM t".into(),
            prompt_tokens: 321,
            output_tokens: 17,
        };
        let line = response_to_json(&resp);
        assert_eq!(response_from_json(&line).unwrap(), resp);
        assert!(response_from_json("{\"idx\":1}").is_err(), "missing id/sql");
        assert!(response_from_json("{\"id\":1,\"sql\":\"s\",\"x\":0}").is_err());
    }
}
