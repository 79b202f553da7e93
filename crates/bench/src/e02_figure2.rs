//! E02 — The Figure 2 running example, checked cell by cell.
//!
//! Reproduces the two §3.4 worked examples verbatim:
//! * projecting GID from DB2_Gene must report **B1, B4, B5 only**;
//! * selecting the JW0080 tuple must report **B1, B3, B5**.

use crate::report::Report;
use crate::workloads::figure2_db;

/// Run the checks and report PASS/FAIL per paper statement.
pub fn run() -> Report {
    let mut r = Report::new(
        "e02",
        "Figure 2 running example (annotations A1-A3, B1-B5)",
        "§3.4: projection of GID -> {B1,B4,B5}; selection of JW0080 -> {B1,B3,B5}",
    );
    r.headers(&["check", "expected", "got", "status"]);
    let mut db = figure2_db();

    // projection check
    let qr = db
        .execute("SELECT GID FROM DB2_Gene ANNOTATION(GAnnotation)")
        .unwrap();
    let mut got: Vec<String> = qr
        .rows
        .iter()
        .flat_map(|row| row.anns[0].iter().map(|a| a.text()[..2].to_string()))
        .collect();
    got.sort();
    got.dedup();
    let expected = vec!["B1", "B4", "B5"];
    let pass = got == expected;
    r.row(vec![
        "project GID from DB2_Gene".into(),
        expected.join(","),
        got.join(","),
        if pass { "PASS" } else { "FAIL" }.into(),
    ]);

    // selection check
    let qr = db
        .execute("SELECT * FROM DB2_Gene ANNOTATION(GAnnotation) WHERE GID = 'JW0080'")
        .unwrap();
    let mut got: Vec<String> = qr.rows[0]
        .all_anns()
        .iter()
        .map(|a| a.text()[..2].to_string())
        .collect();
    got.sort();
    let expected = vec!["B1", "B3", "B5"];
    let pass = got == expected;
    r.row(vec![
        "select tuple JW0080 from DB2_Gene".into(),
        expected.join(","),
        got.join(","),
        if pass { "PASS" } else { "FAIL" }.into(),
    ]);

    // the intersect example: common genes carry annotations from both
    let qr = db
        .execute(
            "SELECT GID, GName, GSequence FROM DB1_Gene ANNOTATION(GAnnotation) \
             INTERSECT \
             SELECT GID, GName, GSequence FROM DB2_Gene ANNOTATION(GAnnotation) \
             ORDER BY GID",
        )
        .unwrap();
    let gids: Vec<String> = qr
        .rows
        .iter()
        .map(|row| row.values[0].to_string())
        .collect();
    let pass = gids == vec!["JW0055", "JW0080"];
    r.row(vec![
        "INTERSECT common genes".into(),
        "JW0055,JW0080".into(),
        gids.join(","),
        if pass { "PASS" } else { "FAIL" }.into(),
    ]);
    let jw80 = &qr.rows[1];
    let mut all: Vec<String> = jw80
        .all_anns()
        .iter()
        .map(|a| a.text()[..2].to_string())
        .collect();
    all.sort();
    all.dedup();
    let expected = vec!["A1", "A3", "B1", "B3", "B5"];
    let pass = all == expected;
    r.row(vec![
        "JW0080 annotations from BOTH tables".into(),
        expected.join(","),
        all.join(","),
        if pass { "PASS" } else { "FAIL" }.into(),
    ]);

    // storage-compactness aside from §3.1: B3 covers 5 cells with ONE record
    let set = db
        .catalog()
        .annotation_set("DB2_Gene", "GAnnotation")
        .unwrap();
    let set = set.index();
    r.row(vec![
        "attachment records (rect scheme)".into(),
        "1 record per annotation (B1-B5)".into(),
        format!(
            "{} records for {} annotations",
            set.attachment_records(),
            set.len()
        ),
        if set.attachment_records() <= set.len() + 2 {
            "PASS"
        } else {
            "FAIL"
        }
        .into(),
    ]);
    r.note("the naive Figure 3 scheme would store B3 five times and A2/B1 per cell");
    r
}
