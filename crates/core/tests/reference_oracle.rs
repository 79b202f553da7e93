//! The reference interpreter (`support/reference.rs`) is what the
//! differential suites trust, so it is pinned here by hand-computed
//! answers on an eight-row fixture — by literals, never by the engine.
//!
//! ```text
//! Gene  row  GID  GName  Len  Func        Tag  row  GID  Label
//!       0    g1   alpha  10   kinase           0    g1   hot
//!       1    g2   beta   20   kinase           1    g3   cold
//!       2    g3   alpha  30   ligase           2    g3   hot
//!       3    g4   beta   41   NULL             3    g9   lost
//!
//! Cur#0 'curated by lab'  on Gene.GName       rows 0, 1
//! Cur#1 'check length'    on Gene.Len         rows 0, 2
//! Src#0 'from GenBank'    on Gene.GID, GName  row 2
//! Note#0 'manual'         on Tag.GID          row 1
//! outdated                on Gene.Func        row 3  (id 3 << 16 | 3)
//! ```

mod support;

use bdbms_common::ErrorCode;
use bdbms_core::Database;
use support::reference;

fn fixture() -> Database {
    let mut db = Database::new_in_memory();
    for sql in [
        "CREATE TABLE Gene (GID TEXT, GName TEXT, Len INT, Func TEXT)",
        "INSERT INTO Gene VALUES ('g1', 'alpha', 10, 'kinase'), ('g2', 'beta', 20, 'kinase'), \
         ('g3', 'alpha', 30, 'ligase'), ('g4', 'beta', 40, NULL)",
        "CREATE TABLE Tag (GID TEXT, Label TEXT)",
        "INSERT INTO Tag VALUES ('g1', 'hot'), ('g3', 'cold'), ('g3', 'hot'), ('g9', 'lost')",
        "CREATE ANNOTATION TABLE Cur ON Gene",
        "CREATE ANNOTATION TABLE Src ON Gene",
        "CREATE ANNOTATION TABLE Note ON Tag",
        "ADD ANNOTATION TO Gene.Cur VALUE 'curated by lab' \
         ON (SELECT G.GName FROM Gene G WHERE Len <= 20)",
        "ADD ANNOTATION TO Gene.Cur VALUE 'check length' \
         ON (SELECT G.Len FROM Gene G WHERE GName = 'alpha')",
        "ADD ANNOTATION TO Gene.Src VALUE 'from GenBank' \
         ON (SELECT G.GID, G.GName FROM Gene G WHERE GID = 'g3')",
        "ADD ANNOTATION TO Tag.Note VALUE 'manual' \
         ON (SELECT T.GID FROM Tag T WHERE Label = 'cold')",
        // a function is established in the lab: changing the length
        // leaves it pending re-verification (§5)
        "CREATE DEPENDENCY RULE r FROM Gene.Len TO Gene.Func VIA PROCEDURE 'lab'",
        "UPDATE Gene SET Len = 41 WHERE GID = 'g4'",
    ] {
        db.execute(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    }
    db
}

/// The reference's answer, one string per row in its own (FROM-order
/// nested-loop) order: `v1,v2 [anns of column 1] [anns of column 2]`.
fn answer(db: &Database, sql: &str) -> Vec<String> {
    let sel = support::parse_select(sql).unwrap();
    let (_, rows) = reference::run(db.catalog(), &sel).unwrap_or_else(|e| panic!("{sql}: {e}"));
    rows.iter()
        .map(|row| {
            let values: Vec<String> = row.values.iter().map(|v| v.to_string()).collect();
            let anns: Vec<String> = (row.anns.iter())
                .map(|cell| {
                    let mut ids: Vec<String> = (cell.iter())
                        .map(|a| format!("{}#{}", a.ann_table, a.id))
                        .collect();
                    ids.sort();
                    format!("[{}]", ids.join(" "))
                })
                .collect();
            format!("{} {}", values.join(","), anns.join(" "))
        })
        .collect()
}

#[test]
fn two_table_join() {
    let db = fixture();
    assert_eq!(
        answer(
            &db,
            "SELECT G.GID, T.Label FROM Gene ANNOTATION(Src) G, Tag T WHERE G.GID = T.GID"
        ),
        ["g1,hot [] []", "g3,cold [Src#0] []", "g3,hot [Src#0] []"]
    );
    // no join predicate: the full 4 x 4 product
    assert_eq!(answer(&db, "SELECT G.GID FROM Gene G, Tag T").len(), 16);
}

#[test]
fn grouped_aggregate_with_having() {
    let db = fixture();
    // alpha = rows 0, 2 (10 + 30); beta = rows 1, 3 (20 + 41)
    assert_eq!(
        answer(
            &db,
            "SELECT GName, COUNT(*), SUM(Len), MIN(Len), MAX(Len), AVG(Len) FROM Gene \
             GROUP BY GName ORDER BY GName DESC"
        ),
        [
            "beta,2,61,20,41,30.5 [] [] [] [] [] []",
            "alpha,2,40,10,30,20 [] [] [] [] [] []"
        ]
    );
    assert_eq!(
        answer(
            &db,
            "SELECT GName, SUM(Len) FROM Gene ANNOTATION(Cur) GROUP BY GName HAVING SUM(Len) > 50"
        ),
        ["beta,61 [Cur#0] []"]
    );
    // a group's cell unions the annotations of its members (§3.4)
    assert_eq!(
        answer(
            &db,
            "SELECT GName, SUM(Len) FROM Gene ANNOTATION(Cur) GROUP BY GName"
        ),
        ["alpha,40 [Cur#0] [Cur#1]", "beta,61 [Cur#0] []"]
    );
    // COUNT(col) skips NULLs but still reads the column, so row 3's
    // outdated Func cell annotates the count; aggregates over nothing
    assert_eq!(
        answer(&db, "SELECT COUNT(*), COUNT(Func) FROM Gene"),
        ["4,3 [] [outdated#196611]"]
    );
    assert_eq!(
        answer(
            &db,
            "SELECT COUNT(*), SUM(Len), MIN(Len) FROM Gene WHERE Len > 100"
        ),
        ["0,NULL,NULL [] [] []"]
    );
    // AHAVING: some annotation in the group satisfies
    assert_eq!(
        answer(
            &db,
            "SELECT GName, COUNT(*) FROM Gene ANNOTATION(Src) GROUP BY GName AHAVING FROM Src"
        ),
        ["alpha,2 [Src#0] []"]
    );
}

#[test]
fn projection_passes_only_projected_columns_annotations_and_promote_copies() {
    let db = fixture();
    // row 2 carries Src#0 on GID and GName, Cur#1 on Len
    assert_eq!(
        answer(
            &db,
            "SELECT GID, Len FROM Gene ANNOTATION(Cur, Src) WHERE GID = 'g3'"
        ),
        ["g3,30 [Src#0] [Cur#1]"]
    );
    assert_eq!(
        answer(&db, "SELECT GID FROM Gene ANNOTATION(Cur) WHERE GID = 'g1'"),
        ["g1 []"]
    );
    assert_eq!(
        answer(
            &db,
            "SELECT GID PROMOTE (GName, Len) FROM Gene ANNOTATION(Cur) WHERE GID = 'g1'"
        ),
        ["g1 [Cur#0 Cur#1]"]
    );
    // an expression carries the annotations of every column it reads
    assert_eq!(
        answer(
            &db,
            "SELECT Len + 1 FROM Gene ANNOTATION(Cur) WHERE GName = 'alpha'"
        ),
        ["11 [Cur#1]", "31 [Cur#1]"]
    );
    // without ANNOTATION(...) nothing propagates
    assert_eq!(
        answer(&db, "SELECT GName FROM Gene WHERE GID = 'g1'"),
        ["alpha []"]
    );
}

#[test]
fn awhere_selects_tuples_and_filter_drops_annotations() {
    let db = fixture();
    // AWHERE looks at the whole tuple's annotations, projected or not
    assert_eq!(
        answer(
            &db,
            "SELECT GID FROM Gene ANNOTATION(Cur) AWHERE CONTAINS 'curated'"
        ),
        ["g1 []", "g2 []"]
    );
    assert_eq!(
        answer(
            &db,
            "SELECT GID FROM Gene ANNOTATION(Cur) AWHERE CONTAINS 'GenBank'"
        ),
        Vec::<String>::new()
    );
    // FILTER keeps every tuple and drops the annotations that fail
    assert_eq!(
        answer(
            &db,
            "SELECT GID, GName, Len FROM Gene ANNOTATION(Cur, Src) FILTER FROM Src"
        ),
        [
            "g1,alpha,10 [] [] []",
            "g2,beta,20 [] [] []",
            "g3,alpha,30 [Src#0] [Src#0] []",
            "g4,beta,41 [] [] []"
        ]
    );
}

#[test]
fn distinct_and_intersect_union_annotations() {
    let db = fixture();
    // alpha = rows 0 (Cur#0) and 2 (Src#0); beta = rows 1 (Cur#0) and 3
    assert_eq!(
        answer(&db, "SELECT DISTINCT GName FROM Gene ANNOTATION(Cur, Src)"),
        ["alpha [Cur#0 Src#0]", "beta [Cur#0]"]
    );
    // g3 is on both sides: Src#0 from Gene row 2, Note#0 from Tag row 1
    assert_eq!(
        answer(
            &db,
            "SELECT GID FROM Gene ANNOTATION(Src) WHERE Len >= 30 \
             INTERSECT SELECT GID FROM Tag ANNOTATION(Note)"
        ),
        ["g3 [Note#0 Src#0]"]
    );
    assert_eq!(
        answer(
            &db,
            "SELECT GID FROM Gene EXCEPT SELECT GID FROM Tag ORDER BY GID"
        ),
        ["g2 []", "g4 []"]
    );
    assert_eq!(
        answer(
            &db,
            "SELECT GID FROM Tag UNION SELECT GID FROM Gene WHERE Len > 30"
        )
        .len(),
        4 // g1, g3, g9, g4
    );
}

#[test]
fn outdated_cell_carries_the_synthetic_annotation() {
    let db = fixture();
    assert_eq!(
        answer(&db, "SELECT GID, Func FROM Gene WHERE Len > 30"),
        ["g4,NULL [] [outdated#196611]"]
    );
    assert_eq!(
        answer(&db, "SELECT GID FROM Gene AWHERE FROM outdated"),
        ["g4 []"]
    );
}

#[test]
fn order_by_limit_and_error_codes() {
    let db = fixture();
    assert_eq!(
        answer(&db, "SELECT GID, Len FROM Gene ORDER BY Len DESC LIMIT 2"),
        ["g4,41 [] []", "g3,30 [] []"]
    );
    let code = |sql: &str| {
        let sel = support::parse_select(sql).unwrap();
        reference::run(db.catalog(), &sel).unwrap_err().code()
    };
    assert_eq!(code("SELECT Nope FROM Gene"), ErrorCode::NotFound);
    assert_eq!(
        code("SELECT GID FROM Gene ANNOTATION(Nope)"),
        ErrorCode::NotFound
    );
    assert_eq!(
        code("SELECT G.GID FROM Gene G, Tag T WHERE GID = 'g1'"),
        ErrorCode::Invalid
    );
    assert_eq!(
        code("SELECT GID FROM Gene HAVING Len > 1"),
        ErrorCode::Invalid
    );
    assert_eq!(
        code("SELECT GID FROM Gene UNION SELECT GID, Label FROM Tag"),
        ErrorCode::Invalid
    );
    assert_eq!(code("SELECT GID + 1 FROM Gene"), ErrorCode::Eval);
}
