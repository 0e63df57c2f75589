//! Prompt assembly: demonstrations + task description, with token accounting.
//!
//! The prompt structure follows §III-A: `P_f = CAT(E', D, X)` — selected
//! demonstrations, then the (possibly pruned) database description, then the NL
//! question. Each demonstration is `CAT(D^e, X^e, Y^e)`.

use crate::tokenizer::{count_tokens, TokenCount};
use sqlkit::Skeleton;
use std::sync::Arc;

/// One demonstration included in a prompt: an entry of a translator's
/// demonstration pool, built once and shared (as an `Arc`) by every prompt
/// that selects it.
///
/// Its texts are fixed when it is built, so [`Demonstration::new`] counts
/// them then, once for the pruned schema text and once for the full one:
/// pricing a prompt scans no demonstration text.
#[derive(Debug, Clone, PartialEq)]
pub struct Demonstration {
    schema_text: String,
    full_schema_text: Arc<str>,
    nl: String,
    sql: String,
    skeleton: Skeleton,
    /// Counts with the pruned schema text (`[0]`) and the full one (`[1]`).
    counts: [DemoCounts; 2],
}

/// A demonstration's counts with one of its schema texts.
#[derive(Debug, Clone, Copy, PartialEq)]
struct DemoCounts {
    /// Count of its block in [`Prompt::text`].
    block: TokenCount,
    /// What the service charges it against the context window.
    charge: u64,
}

impl Demonstration {
    /// A demonstration with its database's pruned and full schema texts, its
    /// NL question, its gold SQL and that SQL's skeleton (the composition
    /// knowledge it carries). Without the pruning module, demonstrations ship
    /// their whole schemas (§III-A) and eat the token budget; a database's
    /// full text is shared by every demonstration on it.
    pub fn new(
        schema_text: String,
        full_schema_text: Arc<str>,
        nl: String,
        sql: String,
        skeleton: Skeleton,
    ) -> Self {
        let counts = |schema: &str| DemoCounts {
            block: count_pieces(&[schema, "-- Question: ", &nl, "\n", &sql, "\n\n"]),
            charge: count_tokens(schema) + count_tokens(&nl) + count_tokens(&sql) + 6,
        };
        let counts = [counts(&schema_text), counts(&full_schema_text)];
        Demonstration { schema_text, full_schema_text, nl, sql, skeleton, counts }
    }

    /// The schema text: the full one when `full_schema`, else the pruned one.
    pub fn schema_text(&self, full_schema: bool) -> &str {
        if full_schema {
            &self.full_schema_text
        } else {
            &self.schema_text
        }
    }

    /// The NL question.
    pub fn nl(&self) -> &str {
        &self.nl
    }

    /// The gold SQL.
    pub fn sql(&self) -> &str {
        &self.sql
    }

    /// Skeleton of the SQL.
    pub fn skeleton(&self) -> &Skeleton {
        &self.skeleton
    }

    /// What the service charges this demonstration against the model's
    /// context window ([`crate::CONTEXT_LIMIT`]) with the given schema text:
    /// its three texts counted separately, plus 6 for the framing. This is
    /// not the count of its block in the rendered prompt.
    pub fn context_charge(&self, full_schema: bool) -> u64 {
        self.counts[usize::from(full_schema)].charge
    }

    /// Count of this demonstration's block in [`Prompt::text`].
    fn block_count(&self, full_schema: bool) -> TokenCount {
        self.counts[usize::from(full_schema)].block
    }
}

/// A fully assembled prompt.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Prompt {
    /// Leading instruction text (zero-shot approaches put their engineering here).
    pub instruction: String,
    /// Selected demonstrations, in prompt order, shared with the pool they
    /// were selected from.
    pub demonstrations: Vec<Arc<Demonstration>>,
    /// Render every demonstration with its full schema text instead of its
    /// pruned one (the "-Schema Pruning" ablation).
    pub full_schemas: bool,
    /// Schema description of the current task (pruned or full).
    pub schema_text: String,
    /// The NL question.
    pub nl: String,
}

impl Prompt {
    /// Render the full prompt text.
    pub fn text(&self) -> String {
        let mut s = String::new();
        if !self.instruction.is_empty() {
            s.push_str(&self.instruction);
            s.push_str("\n\n");
        }
        for d in &self.demonstrations {
            s.push_str(d.schema_text(self.full_schemas));
            s.push_str("-- Question: ");
            s.push_str(&d.nl);
            s.push('\n');
            s.push_str(&d.sql);
            s.push_str("\n\n");
        }
        s.push_str(&self.schema_text);
        s.push_str("-- Question: ");
        s.push_str(&self.nl);
        s.push_str("\nSELECT");
        s
    }

    /// Token length of the rendered prompt, counted from its sections in
    /// render order without rendering it. Demonstrations contribute the
    /// counts they were built with.
    pub fn token_len(&self) -> u64 {
        let demos = (self.demonstrations.iter())
            .fold(self.head_count(), |c, d| c.then(d.block_count(self.full_schemas)));
        demos.then(self.tail_count()).tokens()
    }

    /// Fit the prompt into a token budget by dropping demonstrations from the end
    /// (lowest-priority first, since selection emits them best-first) until it
    /// fits or none are left.
    ///
    /// A demonstration never shortens the prompt, so the demonstrations kept
    /// are the longest prefix that fits. It is found by adding the
    /// demonstrations' stored block counts from the front until one overflows;
    /// only the instruction and the task are counted here.
    pub fn fit_to_budget(&mut self, budget: u64) -> Fit {
        let tail = self.tail_count();
        // The instruction and the demonstrations kept so far.
        let mut front = self.head_count();
        let mut tokens = front.then(tail).tokens();
        let mut kept = 0;
        for d in &self.demonstrations {
            let with_d = front.then(d.block_count(self.full_schemas));
            let with_d_tokens = with_d.then(tail).tokens();
            if with_d_tokens > budget {
                break;
            }
            (front, tokens, kept) = (with_d, with_d_tokens, kept + 1);
        }
        let dropped = self.demonstrations.len() - kept;
        self.demonstrations.truncate(kept);
        Fit { dropped, tokens }
    }

    /// Count of the text before the first demonstration.
    fn head_count(&self) -> TokenCount {
        if self.instruction.is_empty() {
            TokenCount::default()
        } else {
            count_pieces(&[&self.instruction, "\n\n"])
        }
    }

    /// Count of the task after the last demonstration.
    fn tail_count(&self) -> TokenCount {
        count_pieces(&[&self.schema_text, "-- Question: ", &self.nl, "\nSELECT"])
    }
}

/// What [`Prompt::fit_to_budget`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fit {
    /// Demonstrations dropped from the end.
    pub dropped: usize,
    /// Token length of the fitted prompt, as [`Prompt::token_len`] reports it.
    pub tokens: u64,
}

/// Count of the concatenation of `pieces`.
fn count_pieces(pieces: &[&str]) -> TokenCount {
    pieces.iter().fold(TokenCount::default(), |c, p| c.then(TokenCount::of(p)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn demo(i: usize) -> Arc<Demonstration> {
        Arc::new(Demonstration::new(
            "create table t (id int, name text)\n".into(),
            "create table t (id int, name text, extra1 int, extra2 text)\n".into(),
            format!("question number {i} about the table?"),
            "SELECT name FROM t WHERE id = 1".into(),
            Skeleton::parse("SELECT _ FROM _ WHERE _ = _"),
        ))
    }

    #[test]
    fn text_contains_all_sections_in_order() {
        let p = Prompt {
            instruction: "Write SQLite SQL.".into(),
            demonstrations: vec![demo(1)],
            schema_text: "create table u (a int)\n".into(),
            nl: "how many u are there?".into(),
            ..Default::default()
        };
        let t = p.text();
        let i_instr = t.find("Write SQLite").unwrap();
        let i_demo = t.find("question number 1").unwrap();
        let i_task = t.find("how many u").unwrap();
        assert!(i_instr < i_demo && i_demo < i_task);
        assert!(t.ends_with("SELECT"));
        assert!(!t.contains("extra1"));
        let full = Prompt { full_schemas: true, ..p }.text();
        assert!(full.contains("create table t (id int, name text, extra1 int, extra2 text)\n"));
    }

    #[test]
    fn fit_to_budget_drops_tail_demos() {
        let mut p = Prompt {
            demonstrations: (0..20).map(demo).collect(),
            schema_text: "create table u (a int)\n".into(),
            nl: "how many u are there?".into(),
            ..Default::default()
        };
        let before = p.token_len();
        let dropped = p.fit_to_budget(before / 3).dropped;
        assert!(dropped > 0);
        assert!(p.token_len() <= before / 3);
        // Head demos survive.
        assert_eq!(p.demonstrations.first().unwrap().nl(), "question number 0 about the table?");
    }

    #[test]
    fn budget_smaller_than_core_keeps_core() {
        let mut p = Prompt {
            demonstrations: vec![demo(0)],
            schema_text: "create table u (a int)\n".into(),
            nl: "q?".into(),
            ..Default::default()
        };
        let dropped = p.fit_to_budget(1).dropped;
        assert_eq!(dropped, 1);
        assert!(p.demonstrations.is_empty());
    }

    /// The fitting loop `fit_to_budget` replaces: render, count, drop one.
    fn fit_by_rendering(p: &mut Prompt, budget: u64) -> usize {
        let mut dropped = 0;
        while count_tokens(&p.text()) > budget && !p.demonstrations.is_empty() {
            p.demonstrations.pop();
            dropped += 1;
        }
        dropped
    }

    /// With the pruned and with the full schema texts: `token_len` counts the
    /// rendered text exactly, and at every budget up to the unfitted length
    /// `fit_to_budget` leaves the prompt and reports the drops that rendering
    /// after every drop would.
    fn assert_counts_match_rendering(p: &Prompt, case: &str) {
        for full_schemas in [false, true] {
            let p = &Prompt { full_schemas, ..p.clone() };
            let case = format!("{case}, full schemas {full_schemas}");
            let len = count_tokens(&p.text());
            assert_eq!(p.token_len(), len, "{case}: {p:?}");
            for budget in 0..=len {
                let (mut fitted, mut rendered) = (p.clone(), p.clone());
                let fit = fitted.fit_to_budget(budget);
                let dropped = fit_by_rendering(&mut rendered, budget);
                let expected = Fit { dropped, tokens: count_tokens(&rendered.text()) };
                assert_eq!(fit, expected, "{case}, budget {budget}: {p:?}");
                assert_eq!(fitted, rendered, "{case}, budget {budget}");
            }
        }
    }

    fn demo_of(
        schema_text: &str,
        full_schema_text: &str,
        nl: &str,
        sql: &str,
    ) -> Arc<Demonstration> {
        let skeleton = Skeleton::parse(sql);
        Arc::new(Demonstration::new(
            schema_text.into(),
            full_schema_text.into(),
            nl.into(),
            sql.into(),
            skeleton,
        ))
    }

    #[test]
    fn counts_match_rendering_on_edge_cases() {
        // Short words make the word count, not the character count, decide the
        // length, so a word miscounted at a seam changes the result.
        let with_nl = "t a b c d e f g h\n";
        // Without a trailing newline the schema's last word runs into `--`.
        let without_nl = "t a b c d e f g h";
        let demos = || {
            vec![
                demo(0),
                demo_of(without_nl, with_nl, "", ""),
                demo_of("", without_nl, "q\u{3000}?", "SELECT a\u{A0}FROM u"),
                demo_of("\x0Bt\u{2003}\r\n", "", " lead", "trail "),
                demo(1),
            ]
        };
        for instruction in ["", "Write SQLite SQL.", "Answer\u{85}"] {
            for schema_text in [with_nl, without_nl, ""] {
                for nl in ["how many u are there?", ""] {
                    let p = Prompt {
                        instruction: instruction.into(),
                        demonstrations: demos(),
                        schema_text: schema_text.into(),
                        nl: nl.into(),
                        ..Default::default()
                    };
                    let case = format!("{instruction:?} / {schema_text:?} / {nl:?}");
                    assert_counts_match_rendering(&p, &case);
                }
            }
        }
    }

    const TEXTS: &[&str] = &[
        "",
        "create table t (id int, name text)\n",
        "create table t (id int)",
        "how many t?",
        "SELECT name FROM t WHERE id = 1",
        " lead",
        "trail ",
        "a\u{3000}b",
        "x\u{A0}",
        "\x0Bvt\x0C",
        "\u{2003}表 名\u{85}",
        "\r\n",
    ];

    #[test]
    fn counts_match_rendering_on_seeded_prompts() {
        for seed in 0..200u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut pick = || TEXTS[rng.random_range(0..TEXTS.len())];
            let instruction = pick();
            let demonstrations =
                (0..seed % 7).map(|_| demo_of(pick(), pick(), pick(), pick())).collect();
            let p = Prompt {
                instruction: instruction.into(),
                demonstrations,
                schema_text: pick().into(),
                nl: pick().into(),
                ..Default::default()
            };
            assert_counts_match_rendering(&p, &format!("seed {seed}"));
        }
    }

    #[test]
    fn context_charge_is_three_texts_counted_separately_plus_six() {
        for (i, schema) in TEXTS.iter().enumerate() {
            for (j, full) in TEXTS.iter().enumerate() {
                let (nl, sql) = (TEXTS[(i + j) % TEXTS.len()], TEXTS[(i * j + 1) % TEXTS.len()]);
                let d = demo_of(schema, full, nl, sql);
                let rest = count_tokens(nl) + count_tokens(sql) + 6;
                let case = format!("{schema:?} / {full:?} / {nl:?} / {sql:?}");
                assert_eq!(d.context_charge(false), count_tokens(schema) + rest, "{case}");
                assert_eq!(d.context_charge(true), count_tokens(full) + rest, "{case}");
            }
        }
    }

    #[test]
    fn token_len_grows_with_demos() {
        let mut p = Prompt {
            schema_text: "create table u (a int)\n".into(),
            nl: "q?".into(),
            ..Default::default()
        };
        let base = p.token_len();
        p.demonstrations.push(demo(0));
        assert!(p.token_len() > base);
    }
}
