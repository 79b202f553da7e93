//! Corner cases across the four managers: multi-table annotation writes,
//! DDL interactions with live state, and approval/dependency interplay.

use bdbms_common::Value;
use bdbms_core::Database;

#[test]
fn add_annotation_to_multiple_annotation_tables_at_once() {
    // Figure 6(a): TO <annotation_table_names> is a list
    let mut db = Database::new_in_memory();
    db.execute("CREATE TABLE T (id INT)").unwrap();
    db.execute("CREATE ANNOTATION TABLE a ON T").unwrap();
    db.execute("CREATE ANNOTATION TABLE b ON T").unwrap();
    db.execute("INSERT INTO T VALUES (1)").unwrap();
    db.execute("ADD ANNOTATION TO T.a, T.b VALUE 'both' ON (SELECT G.id FROM T G)")
        .unwrap();
    let qr = db.execute("SELECT id FROM T ANNOTATION(a, b)").unwrap();
    assert_eq!(qr.rows[0].anns[0].len(), 2, "one copy per category");
    let qr = db.execute("SELECT id FROM T ANNOTATION(a)").unwrap();
    assert_eq!(qr.rows[0].anns[0].len(), 1);
}

#[test]
fn drop_annotation_table_removes_propagation() {
    let mut db = Database::new_in_memory();
    db.execute("CREATE TABLE T (id INT)").unwrap();
    db.execute("CREATE ANNOTATION TABLE a ON T").unwrap();
    db.execute("INSERT INTO T VALUES (1)").unwrap();
    db.execute("ADD ANNOTATION TO T.a VALUE 'x' ON (SELECT G.id FROM T G)")
        .unwrap();
    db.execute("DROP ANNOTATION TABLE a ON T").unwrap();
    // the annotation table is gone: referencing it errors
    assert!(db.execute("SELECT id FROM T ANNOTATION(a)").is_err());
    assert!(db
        .execute("ADD ANNOTATION TO T.a VALUE 'y' ON (SELECT G.id FROM T G)")
        .is_err());
    // recreating it starts empty
    db.execute("CREATE ANNOTATION TABLE a ON T").unwrap();
    let qr = db.execute("SELECT id FROM T ANNOTATION(a)").unwrap();
    assert!(qr.rows[0].anns[0].is_empty());
}

#[test]
fn drop_dependency_rule_stops_cascade() {
    let mut db = Database::new_in_memory();
    db.execute("CREATE TABLE A (k TEXT, v TEXT)").unwrap();
    db.execute("CREATE TABLE B (k TEXT, d TEXT)").unwrap();
    db.execute("CREATE DEPENDENCY RULE r FROM A.v TO B.d VIA PROCEDURE 'lab' LINK A.k = B.k")
        .unwrap();
    db.execute("INSERT INTO A VALUES ('x', 'v1')").unwrap();
    db.execute("INSERT INTO B VALUES ('x', 'd1')").unwrap();
    db.execute("UPDATE A SET v = 'v2'").unwrap();
    assert_eq!(db.execute("SHOW OUTDATED").unwrap().rows.len(), 1);
    db.execute("VALIDATE B").unwrap();
    db.execute("DROP DEPENDENCY RULE r").unwrap();
    db.execute("UPDATE A SET v = 'v3'").unwrap();
    assert_eq!(
        db.execute("SHOW OUTDATED").unwrap().rows.len(),
        0,
        "no rule, no cascade"
    );
}

#[test]
fn disapproved_insert_with_dependents_marks_stale() {
    // disapproving an INSERT deletes the row; anything derived from it
    // must be invalidated (§6's closing interaction with §5)
    let mut db = Database::new_in_memory();
    db.execute("CREATE TABLE Gene (GID TEXT, GSequence TEXT)")
        .unwrap();
    db.execute("CREATE TABLE Protein (GID TEXT, PFunction TEXT)")
        .unwrap();
    db.execute(
        "CREATE DEPENDENCY RULE r FROM Gene.GSequence TO Protein.PFunction \
         VIA PROCEDURE 'lab' LINK Gene.GID = Protein.GID",
    )
    .unwrap();
    db.execute("CREATE USER labadmin").unwrap();
    db.execute("CREATE USER alice").unwrap();
    db.execute("GRANT INSERT ON Gene TO alice").unwrap();
    db.execute("START CONTENT APPROVAL ON Gene APPROVED BY labadmin")
        .unwrap();
    // the protein exists first; alice's gene insert is pending
    db.execute("INSERT INTO Protein VALUES ('g1', 'kinase')")
        .unwrap();
    db.execute_as("INSERT INTO Gene VALUES ('g1', 'ATG')", "alice")
        .unwrap();
    let id = db.execute("SHOW PENDING OPERATIONS").unwrap().rows[0].values[0]
        .as_int()
        .unwrap();
    db.execute_as(&format!("DISAPPROVE OPERATION {id}"), "labadmin")
        .unwrap();
    assert!(db.execute("SELECT * FROM Gene").unwrap().rows.is_empty());
    // the protein that depended on the retracted gene is now suspect
    let outdated = db.execute("SHOW OUTDATED ON Protein").unwrap();
    assert_eq!(outdated.rows.len(), 1);
}

#[test]
fn deleted_rows_keep_annotation_log_and_row_numbers_not_reused() {
    let mut db = Database::new_in_memory();
    db.execute("CREATE TABLE T (k TEXT)").unwrap();
    db.execute("CREATE ANNOTATION TABLE why ON T").unwrap();
    db.execute("INSERT INTO T VALUES ('a'), ('b')").unwrap();
    db.execute("ADD ANNOTATION TO T.why VALUE 'dup of b' ON (DELETE FROM T WHERE k = 'a')")
        .unwrap();
    db.execute("INSERT INTO T VALUES ('c')").unwrap();
    let t = db.catalog().table("T").unwrap();
    let deleted_log = db.deleted_log("T").unwrap();
    assert_eq!(deleted_log.len(), 1);
    assert_eq!(deleted_log[0].row_no, 0);
    assert_eq!(deleted_log[0].annotation.as_deref(), Some("dup of b"));
    // 'c' got a fresh row number, not the freed 0
    assert_eq!(t.row_numbers(), vec![1, 2]);
}

#[test]
fn show_pending_table_filter_and_statuses() {
    let mut db = Database::new_in_memory();
    db.execute("CREATE TABLE A (v INT)").unwrap();
    db.execute("CREATE TABLE B (v INT)").unwrap();
    db.execute("INSERT INTO A VALUES (1)").unwrap();
    db.execute("INSERT INTO B VALUES (1)").unwrap();
    db.execute("CREATE USER boss").unwrap();
    db.execute("CREATE USER worker").unwrap();
    for t in ["A", "B"] {
        db.execute(&format!("GRANT UPDATE ON {t} TO worker"))
            .unwrap();
        db.execute(&format!("START CONTENT APPROVAL ON {t} APPROVED BY boss"))
            .unwrap();
    }
    db.execute_as("UPDATE A SET v = 2", "worker").unwrap();
    db.execute_as("UPDATE B SET v = 2", "worker").unwrap();
    assert_eq!(db.execute("SHOW PENDING OPERATIONS").unwrap().rows.len(), 2);
    assert_eq!(
        db.execute("SHOW PENDING OPERATIONS ON A")
            .unwrap()
            .rows
            .len(),
        1
    );
    // approving removes from pending, log retains the decision
    let id = db.execute("SHOW PENDING OPERATIONS ON A").unwrap().rows[0].values[0]
        .as_int()
        .unwrap();
    db.execute_as(&format!("APPROVE OPERATION {id}"), "boss")
        .unwrap();
    assert_eq!(db.execute("SHOW PENDING OPERATIONS").unwrap().rows.len(), 1);
    assert_eq!(db.approval_log(None).unwrap().len(), 2);
}

#[test]
fn archive_between_respects_bounds_inclusively() {
    let mut db = Database::new_in_memory();
    db.execute("CREATE TABLE T (id INT)").unwrap();
    db.execute("CREATE ANNOTATION TABLE a ON T").unwrap();
    db.execute("INSERT INTO T VALUES (1)").unwrap();
    let mut stamps = Vec::new();
    for i in 0..3 {
        db.execute(&format!(
            "ADD ANNOTATION TO T.a VALUE 'n{i}' ON (SELECT G.id FROM T G)"
        ))
        .unwrap();
        stamps.push(db.now());
    }
    // archive exactly the middle annotation
    db.execute(&format!(
        "ARCHIVE ANNOTATION FROM T.a BETWEEN {} AND {} ON (SELECT G.id FROM T G)",
        stamps[1], stamps[1]
    ))
    .unwrap();
    let qr = db.execute("SELECT id FROM T ANNOTATION(a)").unwrap();
    let mut live: Vec<String> = qr.rows[0].anns[0].iter().map(|a| a.text()).collect();
    live.sort();
    assert_eq!(live, vec!["n0", "n2"]);
}

#[test]
fn annotation_target_must_match_annotation_table_owner() {
    let mut db = Database::new_in_memory();
    db.execute("CREATE TABLE T (id INT)").unwrap();
    db.execute("CREATE TABLE U (id INT)").unwrap();
    db.execute("CREATE ANNOTATION TABLE a ON T").unwrap();
    db.execute("INSERT INTO U VALUES (1)").unwrap();
    // annotation table on T, target cells from U: rejected
    let err = db
        .execute("ADD ANNOTATION TO T.a VALUE 'x' ON (SELECT G.id FROM U G)")
        .unwrap_err();
    assert_eq!(err.kind(), "invalid");
}

#[test]
fn complex_annotation_target_rejected() {
    let mut db = Database::new_in_memory();
    db.execute("CREATE TABLE T (id INT)").unwrap();
    db.execute("CREATE ANNOTATION TABLE a ON T").unwrap();
    for bad in [
        "ADD ANNOTATION TO T.a VALUE 'x' ON (SELECT G.id FROM T G GROUP BY id)",
        "ADD ANNOTATION TO T.a VALUE 'x' ON (SELECT COUNT(*) FROM T G)",
        "ADD ANNOTATION TO T.a VALUE 'x' ON (SELECT G.id FROM T G INTERSECT SELECT H.id FROM T H)",
    ] {
        assert!(db.execute(bad).is_err(), "{bad}");
    }
}

#[test]
fn executable_rule_without_registered_procedure_falls_back_to_marking() {
    let mut db = Database::new_in_memory();
    db.execute("CREATE TABLE A (v INT)").unwrap();
    db.execute("CREATE TABLE B (v INT, d INT)").unwrap();
    // declared EXECUTABLE but no body registered
    db.execute("CREATE DEPENDENCY RULE r FROM B.v TO B.d VIA PROCEDURE 'ghost' EXECUTABLE")
        .unwrap();
    db.execute("INSERT INTO B VALUES (1, 10)").unwrap();
    db.execute("UPDATE B SET v = 2").unwrap();
    let outdated = db.execute("SHOW OUTDATED").unwrap();
    assert_eq!(outdated.rows.len(), 1);
    // now register the body; the next update recomputes and clears
    db.register_procedure("ghost", |args| {
        Value::Int(args[0].as_int().unwrap_or(0) * 100)
    });
    db.execute("UPDATE B SET v = 3").unwrap();
    assert_eq!(db.execute("SHOW OUTDATED").unwrap().rows.len(), 0);
    let qr = db.execute("SELECT d FROM B").unwrap();
    assert_eq!(qr.rows[0].values[0], Value::Int(300));
}

#[test]
fn grant_on_missing_table_fails_but_user_creation_is_admin_only() {
    let mut db = Database::new_in_memory();
    assert!(db.execute("GRANT SELECT ON ghost TO nobody").is_err());
    db.execute("CREATE USER u1").unwrap();
    let err = db.execute_as("CREATE USER u2", "u1").unwrap_err();
    assert_eq!(err.kind(), "unauthorized");
    assert!(db.execute("CREATE USER u1").is_err(), "duplicate user");
}

#[test]
fn annotation_target_rejects_annotation_clauses() {
    let mut db = Database::new_in_memory();
    db.execute("CREATE TABLE T (id INT)").unwrap();
    db.execute("CREATE ANNOTATION TABLE a ON T").unwrap();
    db.execute("INSERT INTO T VALUES (1)").unwrap();
    // AWHERE inside an annotation target would be silently ignored if
    // accepted — it must be rejected instead
    let err = db
        .execute(
            "ADD ANNOTATION TO T.a VALUE 'x' \
             ON (SELECT G.id FROM T G AWHERE CONTAINS 'y')",
        )
        .unwrap_err();
    assert_eq!(err.kind(), "invalid");
}

/// `STOP CONTENT APPROVAL` that would change nothing is `Invalid` and
/// names the full `STOP` form; monitoring goes on as before.
#[test]
fn stop_content_approval_that_changes_nothing_is_invalid() {
    use bdbms_common::ErrorCode;
    let mut db = Database::new_in_memory();
    db.execute("CREATE TABLE G (GID TEXT, Seq TEXT)").unwrap();
    db.execute("CREATE TABLE H (v INT)").unwrap();
    db.execute("INSERT INTO G VALUES ('g1', 'ATG')").unwrap();
    db.execute("CREATE USER bob").unwrap();
    db.execute("GRANT UPDATE ON G TO bob").unwrap();
    db.execute("START CONTENT APPROVAL ON G APPROVED BY admin")
        .unwrap();
    let err = db
        .execute("STOP CONTENT APPROVAL ON G COLUMNS Seq")
        .unwrap_err();
    assert_eq!(err.code(), ErrorCode::Invalid);
    assert!(
        err.to_string().contains("STOP CONTENT APPROVAL ON G`"),
        "{err}"
    );
    // still monitored: bob's update is logged as an operation
    db.execute_as("UPDATE G SET Seq = 'GTG'", "bob").unwrap();
    assert_eq!(
        db.execute("SHOW PENDING OPERATIONS ON G")
            .unwrap()
            .rows
            .len(),
        1
    );
    // no config at all
    let err = db.execute("STOP CONTENT APPROVAL ON H").unwrap_err();
    assert_eq!(err.code(), ErrorCode::Invalid);
    // a column list that monitors none of the named columns
    db.execute("START CONTENT APPROVAL ON G COLUMNS GID APPROVED BY admin")
        .unwrap();
    let err = db
        .execute("STOP CONTENT APPROVAL ON G COLUMNS Seq")
        .unwrap_err();
    assert_eq!(err.code(), ErrorCode::Invalid);
    db.execute("STOP CONTENT APPROVAL ON G COLUMNS GID")
        .unwrap();
    assert!(db.approval().config("G").is_none(), "last column stopped");
}

/// The curator's history lives in hidden tables: `CHECK` reads them,
/// listings and SQL never show them.
#[test]
fn history_tables_are_hidden_but_checked() {
    let mut db = Database::new_in_memory();
    db.execute("CREATE TABLE G (GID TEXT)").unwrap();
    db.execute("CREATE ANNOTATION TABLE why ON G").unwrap();
    db.execute("INSERT INTO G VALUES ('a'), ('b')").unwrap();
    db.execute("ADD ANNOTATION TO G.why VALUE 'gone' ON (DELETE FROM G WHERE GID = 'a')")
        .unwrap();
    let names: Vec<&str> = db.catalog().tables().map(|t| t.name.as_str()).collect();
    assert_eq!(names, ["G"]);
    assert_eq!(db.catalog().table("G$$deleted").unwrap().len(), 1);
    assert_eq!(db.catalog().ann_set_names("G"), ["why"]);
    let report = db.check().unwrap();
    assert!(report.is_ok(), "{:?}", report.problems);
    assert_eq!(
        report.rows_checked, 2,
        "the live row and the deletion-log row"
    );
    // no identifier can spell a history table
    assert!(db.execute("SELECT * FROM G$$deleted").is_err());
    db.execute("DROP TABLE G").unwrap();
    assert!(
        !db.catalog().has_table("G$$deleted"),
        "dropped with its owner"
    );
}

/// A dropped table takes its grants and approval config with it, so a
/// table re-created under its name inherits neither; a rolled-back drop
/// brings both back.
#[test]
fn drop_table_takes_its_grants_and_approval_config_with_it() {
    let mut db = Database::new_in_memory();
    for sql in [
        "CREATE TABLE T (K INT)",
        "CREATE USER alice",
        "CREATE USER bob",
        "GRANT SELECT, INSERT ON T TO alice",
        "START CONTENT APPROVAL ON T APPROVED BY bob",
        "BEGIN",
        "DROP TABLE T",
        "ROLLBACK",
    ] {
        db.execute(sql).unwrap();
    }
    db.execute_as("INSERT INTO T VALUES (1)", "alice").unwrap();
    assert_eq!(db.pending_operations(Some("T")).unwrap().len(), 1);
    db.execute("DROP TABLE T").unwrap();
    db.execute("CREATE TABLE T (K INT)").unwrap();
    let err = db
        .execute_as("INSERT INTO T VALUES (2)", "alice")
        .unwrap_err();
    assert_eq!(err.code(), bdbms_common::ErrorCode::Unauthorized, "{err}");
    assert!(db.approval().config("T").is_none());
    db.execute("INSERT INTO T VALUES (3)").unwrap();
    assert!(
        db.pending_operations(None).unwrap().is_empty(),
        "the new T is not monitored"
    );
    assert!(db.check().unwrap().is_ok());
}

/// `DROP TABLE` is refused while a dependency rule reads or writes the
/// table: the rule would fail every cascade through it.
#[test]
fn drop_table_is_refused_while_a_rule_names_it() {
    let mut db = Database::new_in_memory();
    for sql in [
        "CREATE TABLE A (K INT, S TEXT)",
        "CREATE TABLE B (K INT, P TEXT)",
        "INSERT INTO A VALUES (1, 'x')",
        "INSERT INTO B VALUES (1, 'y')",
        "CREATE DEPENDENCY RULE r1 FROM A.S TO B.P VIA PROCEDURE 'p' LINK A.K = B.K",
    ] {
        db.execute(sql).unwrap();
    }
    for table in ["B", "A"] {
        let err = db.execute(&format!("DROP TABLE {table}")).unwrap_err();
        assert_eq!(err.code(), bdbms_common::ErrorCode::Dependency, "{err}");
        assert!(
            err.message().contains("`r1`") && err.message().contains("DROP DEPENDENCY RULE r1"),
            "{err}"
        );
    }
    db.execute("UPDATE A SET S = 'z'").unwrap();
    assert!(db.catalog().table("B").unwrap().is_outdated(0, 1));
    db.execute("DROP DEPENDENCY RULE r1").unwrap();
    db.execute("DROP TABLE B").unwrap();
    db.execute("UPDATE A SET S = 'w'").unwrap();
}
