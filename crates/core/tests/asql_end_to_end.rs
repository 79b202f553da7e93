//! End-to-end A-SQL tests reproducing the paper's running examples:
//! the Figure 2/3 gene tables, §3's annotation-propagation query, the
//! Figure 6 archive/restore commands, and Figure 7's SELECT operators.

use bdbms_core::{Database, QueryResult};

/// Build the paper's Figure 2 scenario: DB1_Gene and DB2_Gene with
/// annotations A1–A3 and B1–B5.
fn figure2_db() -> Database {
    let mut db = Database::new_in_memory();
    for t in ["DB1_Gene", "DB2_Gene"] {
        db.execute(&format!(
            "CREATE TABLE {t} (GID TEXT, GName TEXT, GSequence TEXT)"
        ))
        .unwrap();
        db.execute(&format!("CREATE ANNOTATION TABLE GAnnotation ON {t}"))
            .unwrap();
    }
    // DB1_Gene rows (Figure 2, top-left)
    for (gid, name, seq) in [
        ("JW0080", "mraW", "ATGATGGAAAA"),
        ("JW0082", "ftsI", "ATGAAAGCAGC"),
        ("JW0055", "yabP", "ATGAAAGTATC"),
        ("JW0078", "fruR", "GTGAAACTGGA"),
    ] {
        db.execute(&format!(
            "INSERT INTO DB1_Gene VALUES ('{gid}', '{name}', '{seq}')"
        ))
        .unwrap();
    }
    // DB2_Gene rows (Figure 2, top-right)
    for (gid, name, seq) in [
        ("JW0080", "mraW", "ATGATGGAAAA"),
        ("JW0041", "fixB", "ATGAACACGTT"),
        ("JW0037", "caiB", "ATGGATCATCT"),
        ("JW0027", "ispH", "ATGCAGATCCT"),
        ("JW0055", "yabP", "ATGAAAGTATC"),
    ] {
        db.execute(&format!(
            "INSERT INTO DB2_Gene VALUES ('{gid}', '{name}', '{seq}')"
        ))
        .unwrap();
    }
    // A1: "These genes are published in …" over two tuples (rows 0,1) of DB1
    db.execute(
        "ADD ANNOTATION TO DB1_Gene.GAnnotation \
         VALUE 'A1: These genes are published in Nature' \
         ON (SELECT G.GID, G.GName, G.GSequence FROM DB1_Gene G \
             WHERE GID IN ('JW0080', 'JW0082'))",
    )
    .unwrap();
    // A2: "These genes were obtained from RegulonDB" over rows JW0055/JW0078
    db.execute(
        "ADD ANNOTATION TO DB1_Gene.GAnnotation \
         VALUE '<Annotation>A2: These genes were obtained from RegulonDB</Annotation>' \
         ON (SELECT G.GID, G.GName, G.GSequence FROM DB1_Gene G \
             WHERE GID IN ('JW0055', 'JW0078'))",
    )
    .unwrap();
    // A3: "Involved in methyltransferase activity" on one cell (mraW seq)
    db.execute(
        "ADD ANNOTATION TO DB1_Gene.GAnnotation \
         VALUE 'A3: Involved in methyltransferase activity' \
         ON (SELECT G.GSequence FROM DB1_Gene G WHERE GID = 'JW0080')",
    )
    .unwrap();
    // B1: "Curated by user admin" over three tuples of DB2 (GID+GName cols)
    db.execute(
        "ADD ANNOTATION TO DB2_Gene.GAnnotation \
         VALUE 'B1: Curated by user admin' \
         ON (SELECT G.GID, G.GName FROM DB2_Gene G \
             WHERE GID IN ('JW0080', 'JW0037', 'JW0041'))",
    )
    .unwrap();
    // B3: "obtained from GenoBase" over the entire GSequence column (§3.2)
    db.execute(
        "ADD ANNOTATION TO DB2_Gene.GAnnotation \
         VALUE '<Annotation>B3: obtained from GenoBase</Annotation>' \
         ON (SELECT G.GSequence FROM DB2_Gene G)",
    )
    .unwrap();
    // B4: "pseudogene" over an entire tuple
    db.execute(
        "ADD ANNOTATION TO DB2_Gene.GAnnotation \
         VALUE 'B4: pseudogene' \
         ON (SELECT G.* FROM DB2_Gene G WHERE GID = 'JW0037')",
    )
    .unwrap();
    // B5: "This gene has an unknown function" over the JW0080 tuple (§3.2)
    db.execute(
        "ADD ANNOTATION TO DB2_Gene.GAnnotation \
         VALUE '<Annotation>B5: This gene has an unknown function</Annotation>' \
         ON (SELECT G.* FROM DB2_Gene G WHERE GID = 'JW0080')",
    )
    .unwrap();
    db
}

fn ann_texts(qr: &QueryResult, row: usize, col: usize) -> Vec<String> {
    let mut v: Vec<String> = qr.rows[row].anns[col].iter().map(|a| a.text()).collect();
    v.sort();
    v
}

fn find_row(qr: &QueryResult, col: usize, value: &str) -> usize {
    qr.rows
        .iter()
        .position(|r| r.values[col].to_string() == value)
        .unwrap_or_else(|| panic!("row with {value} not found"))
}

#[test]
fn projection_passes_only_projected_columns_annotations() {
    // §3.4: "projecting column GID from Table DB2_Gene results in
    // reporting GID data along with annotations B1, B4, and B5 only"
    let mut db = figure2_db();
    let qr = db
        .execute("SELECT GID FROM DB2_Gene ANNOTATION(GAnnotation)")
        .unwrap();
    let row = find_row(&qr, 0, "JW0080");
    let anns = ann_texts(&qr, row, 0);
    assert_eq!(anns.len(), 2, "JW0080 GID carries B1 and B5: {anns:?}");
    assert!(anns[0].starts_with("B1") && anns[1].starts_with("B5"));
    // B3 (GSequence column) and B4 (other row) must not appear
    assert!(!anns.iter().any(|a| a.contains("GenoBase")));
    let row = find_row(&qr, 0, "JW0037");
    let anns = ann_texts(&qr, row, 0);
    assert!(anns.iter().any(|a| a.starts_with("B1")));
    assert!(anns.iter().any(|a| a.starts_with("B4")));
}

#[test]
fn selection_passes_all_annotations_of_selected_tuples() {
    // §3.4: "selecting the gene with GID = JW0080 from Table DB2_Gene
    // results in reporting the first tuple along with B1, B3, and B5"
    let mut db = figure2_db();
    let qr = db
        .execute("SELECT * FROM DB2_Gene ANNOTATION(GAnnotation) WHERE GID = 'JW0080'")
        .unwrap();
    assert_eq!(qr.rows.len(), 1);
    let all: Vec<String> = {
        let mut v: Vec<String> = qr.rows[0].all_anns().iter().map(|a| a.text()).collect();
        v.sort();
        v
    };
    assert_eq!(all.len(), 3, "{all:?}");
    assert!(all[0].starts_with("B1"));
    assert!(all[1].starts_with("B3"));
    assert!(all[2].starts_with("B5"));
}

#[test]
fn intersect_unions_annotations_from_both_tables() {
    // The paper's motivating example (§3 steps a–c): genes common to both
    // tables, with annotations from both — in ONE A-SQL statement.
    let mut db = figure2_db();
    let qr = db
        .execute(
            "SELECT GID, GName, GSequence FROM DB1_Gene ANNOTATION(GAnnotation) \
             INTERSECT \
             SELECT GID, GName, GSequence FROM DB2_Gene ANNOTATION(GAnnotation) \
             ORDER BY GID",
        )
        .unwrap();
    // common genes: JW0055 and JW0080
    assert_eq!(qr.rows.len(), 2);
    assert_eq!(qr.rows[0].values[0].to_string(), "JW0055");
    assert_eq!(qr.rows[1].values[0].to_string(), "JW0080");
    // JW0080: GID carries A1 (DB1) + B1, B5 (DB2)
    let anns = ann_texts(&qr, 1, 0);
    assert!(anns.iter().any(|a| a.starts_with("A1")), "{anns:?}");
    assert!(anns.iter().any(|a| a.starts_with("B1")));
    assert!(anns.iter().any(|a| a.starts_with("B5")));
    // GSequence of JW0080 carries A1, A3 (DB1) + B3, B5 (DB2)
    let anns = ann_texts(&qr, 1, 2);
    assert!(anns.iter().any(|a| a.starts_with("A3")), "{anns:?}");
    assert!(anns.iter().any(|a| a.contains("GenoBase")));
    // JW0055: A2 from DB1
    let anns = ann_texts(&qr, 0, 0);
    assert!(anns.iter().any(|a| a.contains("RegulonDB")), "{anns:?}");
}

#[test]
fn promote_copies_annotations_onto_projected_column() {
    // Figure 7 / §3.4: without PROMOTE, projecting GID from DB1_Gene
    // loses A3 (it lives on GSequence); PROMOTE(GSequence) keeps it.
    let mut db = figure2_db();
    let without = db
        .execute("SELECT GID FROM DB1_Gene ANNOTATION(GAnnotation) WHERE GID = 'JW0080'")
        .unwrap();
    assert!(!ann_texts(&without, 0, 0)
        .iter()
        .any(|a| a.starts_with("A3")));
    let with = db
        .execute(
            "SELECT GID PROMOTE (GSequence) FROM DB1_Gene ANNOTATION(GAnnotation) \
             WHERE GID = 'JW0080'",
        )
        .unwrap();
    assert!(ann_texts(&with, 0, 0).iter().any(|a| a.starts_with("A3")));
}

#[test]
fn awhere_filters_tuples_by_annotation() {
    let mut db = figure2_db();
    // only tuples carrying a RegulonDB annotation pass
    let qr = db
        .execute(
            "SELECT GID FROM DB1_Gene ANNOTATION(GAnnotation) \
             AWHERE CONTAINS 'RegulonDB' ORDER BY GID",
        )
        .unwrap();
    let gids: Vec<String> = qr.rows.iter().map(|r| r.values[0].to_string()).collect();
    assert_eq!(gids, vec!["JW0055", "JW0078"]);
}

#[test]
fn filter_keeps_tuples_drops_annotations() {
    let mut db = figure2_db();
    let qr = db
        .execute(
            "SELECT GID, GSequence FROM DB2_Gene ANNOTATION(GAnnotation) \
             FILTER CONTAINS 'GenoBase' ORDER BY GID",
        )
        .unwrap();
    // FILTER keeps user data intact: all 5 tuples
    assert_eq!(qr.rows.len(), 5);
    for (i, row) in qr.rows.iter().enumerate() {
        // GID column annotations (B1/B4/B5) all dropped
        assert!(row.anns[0].is_empty(), "row {i} GID anns should be empty");
        // GSequence retains only B3
        let anns = ann_texts(&qr, i, 1);
        assert_eq!(anns.len(), 1);
        assert!(anns[0].contains("GenoBase"));
    }
}

#[test]
fn annotation_predicates_path_from_before_after() {
    let mut db = Database::new_in_memory();
    db.execute("CREATE TABLE T (id INT, v TEXT)").unwrap();
    db.execute("CREATE ANNOTATION TABLE prov ON T").unwrap();
    db.execute("CREATE ANNOTATION TABLE comments ON T").unwrap();
    db.execute("INSERT INTO T VALUES (1, 'x'), (2, 'y')")
        .unwrap();
    db.execute(
        "ADD ANNOTATION TO T.prov \
         VALUE '<Annotation><source>RegulonDB</source></Annotation>' \
         ON (SELECT G.* FROM T G WHERE id = 1)",
    )
    .unwrap();
    db.execute(
        "ADD ANNOTATION TO T.comments VALUE 'check this' \
         ON (SELECT G.* FROM T G WHERE id = 2)",
    )
    .unwrap();
    // PATH predicate
    let qr = db
        .execute(
            "SELECT id FROM T ANNOTATION(prov, comments) \
             AWHERE PATH '/Annotation/source' = 'RegulonDB'",
        )
        .unwrap();
    assert_eq!(qr.rows.len(), 1);
    assert_eq!(qr.rows[0].values[0].to_string(), "1");
    // FROM predicate (category selection)
    let qr = db
        .execute("SELECT id FROM T ANNOTATION(prov, comments) AWHERE FROM comments")
        .unwrap();
    assert_eq!(qr.rows[0].values[0].to_string(), "2");
    // BEFORE/AFTER over creation timestamps
    let qr = db
        .execute("SELECT id FROM T ANNOTATION(prov, comments) AWHERE AFTER 1")
        .unwrap();
    assert_eq!(qr.rows.len(), 2);
    let qr = db
        .execute("SELECT id FROM T ANNOTATION(prov, comments) AWHERE BEFORE 1")
        .unwrap();
    assert!(qr.rows.is_empty());
}

#[test]
fn archive_hides_restore_brings_back() {
    // Figure 6(b)/(c) + §3.3's B5 example: archive the "unknown function"
    // annotation once the function becomes known.
    let mut db = figure2_db();
    let before = db
        .execute("SELECT * FROM DB2_Gene ANNOTATION(GAnnotation) WHERE GID = 'JW0080'")
        .unwrap();
    assert_eq!(before.rows[0].all_anns().len(), 3);
    db.execute(
        "ARCHIVE ANNOTATION FROM DB2_Gene.GAnnotation \
         ON (SELECT G.GName FROM DB2_Gene G WHERE GID = 'JW0080')",
    )
    .unwrap();
    // B1 and B5 touch GName of JW0080; B3 does not
    let after = db
        .execute("SELECT * FROM DB2_Gene ANNOTATION(GAnnotation) WHERE GID = 'JW0080'")
        .unwrap();
    let anns: Vec<String> = after.rows[0].all_anns().iter().map(|a| a.text()).collect();
    assert_eq!(anns.len(), 1, "{anns:?}");
    assert!(anns[0].contains("GenoBase"));
    db.execute(
        "RESTORE ANNOTATION FROM DB2_Gene.GAnnotation \
         ON (SELECT G.GName FROM DB2_Gene G WHERE GID = 'JW0080')",
    )
    .unwrap();
    let restored = db
        .execute("SELECT * FROM DB2_Gene ANNOTATION(GAnnotation) WHERE GID = 'JW0080'")
        .unwrap();
    assert_eq!(restored.rows[0].all_anns().len(), 3);
}

#[test]
fn archive_with_time_window() {
    let mut db = Database::new_in_memory();
    db.execute("CREATE TABLE T (id INT)").unwrap();
    db.execute("CREATE ANNOTATION TABLE a ON T").unwrap();
    db.execute("INSERT INTO T VALUES (1)").unwrap();
    db.execute("ADD ANNOTATION TO T.a VALUE 'early' ON (SELECT G.id FROM T G)")
        .unwrap();
    let cut = db.now();
    db.execute("ADD ANNOTATION TO T.a VALUE 'late' ON (SELECT G.id FROM T G)")
        .unwrap();
    db.execute(&format!(
        "ARCHIVE ANNOTATION FROM T.a BETWEEN 0 AND {cut} ON (SELECT G.id FROM T G)"
    ))
    .unwrap();
    let qr = db.execute("SELECT id FROM T ANNOTATION(a)").unwrap();
    let anns = ann_texts(&qr, 0, 0);
    assert_eq!(anns, vec!["late"]);
}

#[test]
fn group_by_unions_annotations_and_ahaving() {
    let mut db = Database::new_in_memory();
    db.execute("CREATE TABLE Hits (gene TEXT, score INT)")
        .unwrap();
    db.execute("CREATE ANNOTATION TABLE note ON Hits").unwrap();
    db.execute("INSERT INTO Hits VALUES ('g1', 10), ('g1', 20), ('g2', 5), ('g2', 7), ('g3', 1)")
        .unwrap();
    db.execute(
        "ADD ANNOTATION TO Hits.note VALUE 'suspect run' \
         ON (SELECT H.score FROM Hits H WHERE score = 20)",
    )
    .unwrap();
    let qr = db
        .execute(
            "SELECT gene, SUM(score) FROM Hits ANNOTATION(note) \
             GROUP BY gene ORDER BY gene",
        )
        .unwrap();
    assert_eq!(qr.rows.len(), 3);
    assert_eq!(qr.rows[0].values[1], bdbms_common::Value::Int(30));
    // the group output carries the union of member annotations
    assert_eq!(ann_texts(&qr, 0, 1), vec!["suspect run"]);
    assert!(qr.rows[1].anns[1].is_empty());
    // AHAVING: keep only groups containing an annotated member
    let qr = db
        .execute(
            "SELECT gene, COUNT(*) FROM Hits ANNOTATION(note) \
             GROUP BY gene AHAVING CONTAINS 'suspect'",
        )
        .unwrap();
    assert_eq!(qr.rows.len(), 1);
    assert_eq!(qr.rows[0].values[0].to_string(), "g1");
}

#[test]
fn distinct_unions_annotations() {
    let mut db = Database::new_in_memory();
    db.execute("CREATE TABLE T (v TEXT)").unwrap();
    db.execute("CREATE ANNOTATION TABLE a ON T").unwrap();
    db.execute("INSERT INTO T VALUES ('x'), ('x')").unwrap();
    // annotate each duplicate differently (by row via a marker column trick:
    // rows are distinguished by insertion order, use WHERE on rowless data —
    // annotate all, then one cell)
    db.execute("ADD ANNOTATION TO T.a VALUE 'both' ON (SELECT G.v FROM T G)")
        .unwrap();
    let qr = db
        .execute("SELECT DISTINCT v FROM T ANNOTATION(a)")
        .unwrap();
    assert_eq!(qr.rows.len(), 1);
    assert_eq!(ann_texts(&qr, 0, 0), vec!["both"]);
}

#[test]
fn aggregates_without_group_by() {
    let mut db = figure2_db();
    let qr = db
        .execute("SELECT COUNT(*), MIN(GID), MAX(GID) FROM DB2_Gene")
        .unwrap();
    assert_eq!(qr.rows[0].values[0], bdbms_common::Value::Int(5));
    assert_eq!(qr.rows[0].values[1].to_string(), "JW0027");
    assert_eq!(qr.rows[0].values[2].to_string(), "JW0080");
    // empty input
    db.execute("CREATE TABLE Empty (x INT)").unwrap();
    let qr = db.execute("SELECT COUNT(*) FROM Empty").unwrap();
    assert_eq!(qr.rows[0].values[0], bdbms_common::Value::Int(0));
}

#[test]
fn union_and_except() {
    let mut db = figure2_db();
    let union = db
        .execute("SELECT GID FROM DB1_Gene UNION SELECT GID FROM DB2_Gene")
        .unwrap();
    assert_eq!(union.rows.len(), 7); // 4 + 5 − 2 common
    let except = db
        .execute("SELECT GID FROM DB1_Gene EXCEPT SELECT GID FROM DB2_Gene ORDER BY GID")
        .unwrap();
    let gids: Vec<String> = except
        .rows
        .iter()
        .map(|r| r.values[0].to_string())
        .collect();
    assert_eq!(gids, vec!["JW0078", "JW0082"]);
}

#[test]
fn join_two_tables_with_where() {
    let mut db = figure2_db();
    let qr = db
        .execute(
            "SELECT G.GID, H.GName FROM DB1_Gene G, DB2_Gene H \
             WHERE G.GID = H.GID ORDER BY GID",
        )
        .unwrap();
    assert_eq!(qr.rows.len(), 2);
    assert_eq!(qr.rows[0].values[0].to_string(), "JW0055");
}

#[test]
fn insert_update_delete_roundtrip() {
    let mut db = Database::new_in_memory();
    db.execute("CREATE TABLE G (GID TEXT, len INT)").unwrap();
    db.execute("INSERT INTO G VALUES ('a', 1), ('b', 2), ('c', 3)")
        .unwrap();
    let n = db
        .execute("UPDATE G SET len = len * 10 WHERE GID <> 'a'")
        .unwrap();
    assert_eq!(n.affected, 2);
    let qr = db.execute("SELECT len FROM G ORDER BY len").unwrap();
    let lens: Vec<String> = qr.rows.iter().map(|r| r.values[0].to_string()).collect();
    assert_eq!(lens, vec!["1", "20", "30"]);
    let n = db.execute("DELETE FROM G WHERE len >= 20").unwrap();
    assert_eq!(n.affected, 2);
    assert_eq!(db.execute("SELECT * FROM G").unwrap().rows.len(), 1);
}

#[test]
fn add_annotation_on_insert_and_update() {
    // §3.2: "users can insert and annotate the new tuple instantly"
    let mut db = Database::new_in_memory();
    db.execute("CREATE TABLE G (GID TEXT, seq TEXT)").unwrap();
    db.execute("CREATE ANNOTATION TABLE why ON G").unwrap();
    db.execute(
        "ADD ANNOTATION TO G.why VALUE 'imported in batch 7' \
         ON (INSERT INTO G VALUES ('JW1', 'ATG'))",
    )
    .unwrap();
    let qr = db.execute("SELECT * FROM G ANNOTATION(why)").unwrap();
    assert_eq!(ann_texts(&qr, 0, 0), vec!["imported in batch 7"]);
    assert_eq!(ann_texts(&qr, 0, 1), vec!["imported in batch 7"]);
    // update-and-annotate touches only the SET column
    db.execute(
        "ADD ANNOTATION TO G.why VALUE 'resequenced' \
         ON (UPDATE G SET seq = 'GTG' WHERE GID = 'JW1')",
    )
    .unwrap();
    let qr = db.execute("SELECT * FROM G ANNOTATION(why)").unwrap();
    assert_eq!(ann_texts(&qr, 0, 0), vec!["imported in batch 7"]);
    assert_eq!(
        ann_texts(&qr, 0, 1),
        vec!["imported in batch 7", "resequenced"]
    );
    assert_eq!(qr.rows[0].values[1].to_string(), "GTG");
}

#[test]
fn delete_with_annotation_goes_to_log() {
    // §3.2: deleted tuples stored in a log with the "why" annotation
    let mut db = Database::new_in_memory();
    db.execute("CREATE TABLE G (GID TEXT)").unwrap();
    db.execute("CREATE ANNOTATION TABLE why ON G").unwrap();
    db.execute("INSERT INTO G VALUES ('dead'), ('alive')")
        .unwrap();
    db.execute(
        "ADD ANNOTATION TO G.why VALUE 'retracted by journal' \
         ON (DELETE FROM G WHERE GID = 'dead')",
    )
    .unwrap();
    assert_eq!(db.execute("SELECT * FROM G").unwrap().rows.len(), 1);
    let log = db.deleted_log("G").unwrap();
    assert_eq!(log.len(), 1);
    assert_eq!(log[0].annotation.as_deref(), Some("retracted by journal"));
    assert_eq!(log[0].values[0].to_string(), "dead");
}

#[test]
fn multiple_annotation_tables_categorization() {
    // §3.1: one table may have provenance and comment annotation tables
    let mut db = Database::new_in_memory();
    db.execute("CREATE TABLE G (GID TEXT)").unwrap();
    db.execute("CREATE ANNOTATION TABLE prov ON G").unwrap();
    db.execute("CREATE ANNOTATION TABLE comments ON G").unwrap();
    db.execute("INSERT INTO G VALUES ('g')").unwrap();
    db.execute("ADD ANNOTATION TO G.prov VALUE 'from RegulonDB' ON (SELECT X.GID FROM G X)")
        .unwrap();
    db.execute("ADD ANNOTATION TO G.comments VALUE 'looks off' ON (SELECT X.GID FROM G X)")
        .unwrap();
    // propagating only one category
    let qr = db.execute("SELECT GID FROM G ANNOTATION(prov)").unwrap();
    assert_eq!(ann_texts(&qr, 0, 0), vec!["from RegulonDB"]);
    let qr = db
        .execute("SELECT GID FROM G ANNOTATION(comments)")
        .unwrap();
    assert_eq!(ann_texts(&qr, 0, 0), vec!["looks off"]);
    let qr = db
        .execute("SELECT GID FROM G ANNOTATION(prov, comments)")
        .unwrap();
    assert_eq!(qr.rows[0].anns[0].len(), 2);
    // no ANNOTATION clause → no annotations
    let qr = db.execute("SELECT GID FROM G").unwrap();
    assert!(qr.rows[0].anns[0].is_empty());
}

#[test]
fn errors_are_reported() {
    let mut db = Database::new_in_memory();
    assert!(db.execute("SELECT * FROM missing").is_err());
    db.execute("CREATE TABLE T (x INT)").unwrap();
    assert!(db.execute("SELECT nope FROM T").is_err());
    assert!(db.execute("INSERT INTO T VALUES ('text')").is_err());
    assert!(db.execute("SELECT x FROM T ANNOTATION(ghost)").is_err());
    assert!(db.execute("CREATE TABLE T (y INT)").is_err());
    assert!(db
        .execute("ADD ANNOTATION TO T.ghost VALUE 'x' ON (SELECT G.x FROM T G)")
        .is_err());
}
