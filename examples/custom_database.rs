//! Bring your own database: build the paper's Fig. 1 TV schema by hand, populate
//! it, run SQL through the engine, and use PURPLE's Database Adaption to repair the
//! exact hallucinated queries Table 2 catalogues.
//!
//! ```sh
//! cargo run --release --example custom_database
//! ```

use purple_repro::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sqlkit::{Column, ColumnId, ColumnType, ForeignKey, Table};

fn build_tv_database() -> Database {
    let mut schema = Schema::new("tvdb");
    schema.tables.push(Table {
        name: "tv_channel".into(),
        display: "tv channel".into(),
        columns: vec![
            Column::new("id", ColumnType::Int),
            Column::new("series_name", ColumnType::Text),
            Column::new("country", ColumnType::Text),
            Column::new("language", ColumnType::Text),
        ],
        primary_key: Some(0),
    });
    schema.tables.push(Table {
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
    schema.foreign_keys.push(ForeignKey {
        from: ColumnId { table: 1, column: 3 },
        to: ColumnId { table: 0, column: 0 },
    });

    let mut db = Database::empty(schema);
    let t = |s: &str| Value::Text(s.into());
    for row in [
        vec![Value::Int(1), t("Sky Radio"), t("Italy"), t("Italian")],
        vec![Value::Int(2), t("Rai 1"), t("Italy"), t("Italian")],
        vec![Value::Int(3), t("CBBC"), t("UK"), t("English")],
        vec![Value::Int(4), t("Nick"), t("USA"), t("English")],
    ] {
        db.insert(0, row);
    }
    for row in [
        vec![Value::Int(1), t("The Ball"), t("Todd Casey"), Value::Int(1)],
        vec![Value::Int(2), t("The Kite"), t("Todd Casey"), Value::Int(3)],
        vec![Value::Int(3), t("The Rock"), t("Joseph Kuhr"), Value::Int(3)],
        vec![Value::Int(4), t("The Star"), t("Joseph Kuhr"), Value::Int(4)],
    ] {
        db.insert(1, row);
    }
    db
}

fn main() {
    let db = build_tv_database();

    // The paper's Fig. 1: gold EXCEPT query vs the plausible-but-different NOT IN.
    let gold = "SELECT Country FROM tv_channel EXCEPT SELECT T1.Country FROM tv_channel AS T1 \
                JOIN cartoon AS T2 ON T1.id = T2.channel WHERE T2.written_by = 'Todd Casey'";
    let not_in = "SELECT Country FROM tv_channel WHERE id NOT IN (SELECT channel FROM cartoon \
                  WHERE written_by = 'Todd Casey')";
    for (label, sql) in [("gold (EXCEPT)", gold), ("C3-style (NOT IN)", not_in)] {
        let q = parse(sql).expect("parses");
        let rs = execute(&db, &q).expect("executes");
        let rows: Vec<String> = rs.rows.iter().map(|r| r[0].to_string()).collect();
        println!("{label:<20} -> {rows:?}");
    }
    println!("(different results on this data: the Fig. 1 de-duplication trap)\n");

    // Database Adaption repairs each Table-2 error category.
    let broken = [
        // Table-Column-Mismatch: title lives on cartoon, not tv_channel.
        "SELECT T2.title FROM cartoon AS T1 JOIN tv_channel AS T2 ON T1.channel = T2.id",
        // Column-Ambiguity: id exists in both tables.
        "SELECT id FROM tv_channel JOIN cartoon ON tv_channel.id = cartoon.channel",
        // Missing-Table: written_by needs cartoon joined in.
        "SELECT series_name FROM tv_channel WHERE cartoon.written_by = 'Todd Casey'",
        // Function-Hallucination: SQLite has no CONCAT.
        "SELECT CONCAT(series_name, ' ', country) FROM tv_channel",
        // Schema-Hallucination: countrys does not exist.
        "SELECT countrys FROM tv_channel",
        // Aggregation-Hallucination: multi-argument COUNT.
        "SELECT COUNT(DISTINCT series_name, country) FROM tv_channel",
    ];
    let mut rng = StdRng::seed_from_u64(7);
    let session = ExecSession::disabled();
    let sdb = session.bind(&db);
    for sql in broken {
        let fixed = purple::adapt_sql(&sdb, sql, &mut rng);
        println!("broken: {sql}");
        println!(
            "fixed:  {}   [{}{}]",
            fixed.sql,
            fixed.fixes.join(", "),
            if fixed.executable { "" } else { " — STILL FAILING" }
        );
        println!();
    }
}
