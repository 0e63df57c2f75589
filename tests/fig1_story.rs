//! The paper's Fig. 1, replayed end-to-end: "What are the countries that are not
//! playing cartoons written by Todd Casey?" on the TV database.
//!
//! The story: the gold SQL needs `EXCEPT` with a join (de-duplicated country set);
//! the plausible `NOT IN` variant returns duplicate countries and is wrong. A
//! demonstration with the *same operator composition* (the paper's Fig. 2 invoice
//! example) matches at Structure level and teaches the simulated LLM the right
//! composition; keyword-set similarity cannot tell the two shapes apart.

use purple_repro::prelude::*;
use sqlkit::{Column, ColumnId, ColumnType, ForeignKey, Table};
use std::collections::BTreeSet;

const GOLD: &str = "SELECT Country FROM tv_channel EXCEPT SELECT T1.Country FROM tv_channel \
                    AS T1 JOIN cartoon AS T2 ON T1.id = T2.channel WHERE T2.written_by = \
                    'Todd Casey'";
const NOT_IN: &str = "SELECT Country FROM tv_channel WHERE id NOT IN (SELECT channel FROM \
                      cartoon WHERE written_by = 'Todd Casey')";

fn tv_db() -> engine::Database {
    let mut s = Schema::new("tvdb");
    s.tables.push(Table {
        name: "tv_channel".into(),
        display: "tv channel".into(),
        columns: vec![
            Column::new("id", ColumnType::Int),
            Column::new("series_name", ColumnType::Text),
            Column::new("country", ColumnType::Text),
        ],
        primary_key: Some(0),
    });
    s.tables.push(Table {
        name: "cartoon".into(),
        display: "cartoon".into(),
        columns: vec![
            Column::new("id", ColumnType::Int),
            Column::new("title", ColumnType::Text),
            Column::new("written_by", ColumnType::Text),
            Column::new("channel", ColumnType::Int),
        ],
        primary_key: Some(0),
    });
    s.foreign_keys.push(ForeignKey {
        from: ColumnId { table: 1, column: 3 },
        to: ColumnId { table: 0, column: 0 },
    });
    let mut db = engine::Database::empty(s);
    let t = |x: &str| engine::Value::Text(x.into());
    let i = engine::Value::Int;
    for row in [
        vec![i(1), t("Sky Radio"), t("Italy")],
        vec![i(2), t("Rai 1"), t("Italy")],
        vec![i(3), t("CBBC"), t("UK")],
        vec![i(4), t("Nick"), t("USA")],
    ] {
        db.insert(0, row);
    }
    for row in [
        vec![i(1), t("The Ball"), t("Todd Casey"), i(1)],
        vec![i(2), t("The Kite"), t("Todd Casey"), i(3)],
        vec![i(3), t("The Rock"), t("Joseph Kuhr"), i(3)],
        vec![i(4), t("The Star"), t("Joseph Kuhr"), i(4)],
    ] {
        db.insert(1, row);
    }
    db
}

#[test]
fn except_and_not_in_disagree_on_this_data() {
    let db = tv_db();
    let gold = parse(GOLD).unwrap();
    let not_in = parse(NOT_IN).unwrap();
    // Semantically different here: Italy has a Casey-free channel (Rai 1).
    assert!(!eval::ex_match(&ExecSession::disabled().bind(&db), &not_in, &gold));
    assert!(!eval::em_match(&not_in, &gold, &db.schema));
}

#[test]
fn fig2_demonstration_matches_gold_at_structure_level_only() {
    // The paper's Fig. 2 invoice demonstration shares the composition:
    // SELECT _ FROM _ EXCEPT SELECT _ FROM _ JOIN _ ON _ = _ WHERE _ > _
    let fig2 = parse(
        "SELECT LastName FROM customer EXCEPT SELECT T1.LastName FROM customer AS T1 JOIN \
         invoice AS T2 ON T1.CustomerId = T2.CustomerId WHERE T2.total > 20",
    )
    .unwrap();
    let gold = parse(GOLD).unwrap();
    let gold_skel = Skeleton::from_query(&gold);
    let fig2_skel = Skeleton::from_query(&fig2);
    // `>` vs `=` separates them at Detail and Keywords; Fig. 7's <CMP> class merges
    // them at Structure level — exactly the generalization §IV-C1 designed for.
    assert_ne!(gold_skel.at_level(Level::Detail), fig2_skel.at_level(Level::Detail));
    assert_ne!(gold_skel.at_level(Level::Keywords), fig2_skel.at_level(Level::Keywords));
    assert_eq!(gold_skel.at_level(Level::Structure), fig2_skel.at_level(Level::Structure));
    assert_eq!(gold_skel.at_level(Level::Clause), fig2_skel.at_level(Level::Clause));
    assert_eq!(llm::LlmService::support_level(&gold_skel, &[&fig2_skel]), Some(Level::Structure));
}

#[test]
fn keyword_sets_cannot_distinguish_reordered_compositions() {
    // §IV-C1's DAIL-SQL critique: swapping the EXCEPT arms keeps the keyword *set*
    // identical while the composition differs.
    let swapped = parse(
        "SELECT T1.Country FROM tv_channel AS T1 JOIN cartoon AS T2 ON T1.id = T2.channel \
         WHERE T2.written_by = 'Todd Casey' EXCEPT SELECT Country FROM tv_channel",
    )
    .unwrap();
    let gold = parse(GOLD).unwrap();
    let set = |q: &Query| -> BTreeSet<sqlkit::SkelTok> {
        Skeleton::from_query(q).at_level(Level::Keywords).into_iter().collect()
    };
    assert_eq!(set(&gold), set(&swapped), "keyword sets collide");
    assert_ne!(
        Skeleton::from_query(&gold).at_level(Level::Keywords),
        Skeleton::from_query(&swapped).at_level(Level::Keywords),
        "sequences must not collide"
    );
    // And the two queries disagree on data, so the collision matters.
    let db = tv_db();
    assert!(!eval::ex_match(&ExecSession::disabled().bind(&db), &swapped, &gold));
}

#[test]
fn composition_support_raises_the_simulated_llms_odds() {
    let svc = llm::LlmService::new(CHATGPT);
    let gold = parse(GOLD).unwrap();
    let required = Skeleton::from_query(&gold);
    let fig2_skel = Skeleton::from_query(
        &parse(
            "SELECT LastName FROM customer EXCEPT SELECT T1.LastName FROM customer AS T1 JOIN \
             invoice AS T2 ON T1.CustomerId = T2.CustomerId WHERE T2.total > 20",
        )
        .unwrap(),
    );
    let (p_without, _) = svc.composition_probability(&required, &[], &gold, 0.0, false);
    let (p_with, level) = svc.composition_probability(&required, &[&fig2_skel], &gold, 0.0, false);
    assert_eq!(level, Some(Level::Structure));
    assert!(
        p_with > p_without + 0.10,
        "structure-level demonstration should raise the odds: {p_with:.2} vs {p_without:.2}"
    );
}

#[test]
fn adaption_repairs_the_din_sql_style_output() {
    // DIN-SQL's Fig. 1 output references T1.Country through a NOT IN over a join —
    // executable but semantically redundant. Here we check the weaker guarantee the
    // paper makes: adaption never breaks an executable query.
    let db = tv_db();
    let din = "SELECT Country FROM tv_channel WHERE country NOT IN (SELECT T1.Country FROM \
               tv_channel AS T1 JOIN cartoon AS T2 ON T1.id = T2.Channel WHERE T2.Written_by \
               = 'Todd Casey')";
    let mut rng = rand::SeedableRng::seed_from_u64(1);
    let fixed = purple::adapt_sql(&ExecSession::disabled().bind(&db), din, &mut rng);
    assert!(fixed.executable);
    assert!(fixed.fixes.is_empty(), "executable SQL must be untouched: {:?}", fixed.fixes);
    assert_eq!(fixed.sql, din);
}
