//! One end-to-end assertion per [`ErrorCode`] variant: clients must be
//! able to distinguish syntax vs. authorization vs. constraint failures
//! programmatically, without string-matching messages.

use bdbms_common::{BdbmsError, ErrorCode, Value};
use bdbms_core::Database;

fn db_with_gene() -> Database {
    let mut db = Database::new_in_memory();
    db.execute("CREATE TABLE Gene (GID TEXT, Len INT)").unwrap();
    db.execute("INSERT INTO Gene VALUES ('JW0080', 11)")
        .unwrap();
    db
}

#[test]
fn syntax_error_carries_code_and_span() {
    let mut db = db_with_gene();
    let err = db.execute("SELECT GID FRM Gene").unwrap_err();
    assert_eq!(err.code(), ErrorCode::Syntax);
    let span = err.span.expect("parse errors point at the offending token");
    assert_eq!(
        &"SELECT GID FRM Gene"[span.start..span.end],
        "FRM",
        "span must cover the unexpected token"
    );
    // lex-level errors are spanned too
    let err = db.execute("SELECT 'oops").unwrap_err();
    assert_eq!(err.code(), ErrorCode::Syntax);
    assert_eq!(err.span.map(|s| s.start), Some(7));
}

#[test]
fn unknown_table_is_not_found() {
    let mut db = db_with_gene();
    let err = db.execute("SELECT * FROM Protein").unwrap_err();
    assert_eq!(err.code(), ErrorCode::NotFound);
}

/// A typo'd table in a curator's `SHOW OUTDATED ON` fails as a SELECT
/// from it does, instead of reading as "nothing is outdated".
#[test]
fn show_outdated_on_an_unknown_table_is_not_found() {
    let mut db = db_with_gene();
    let err = db.execute("SHOW OUTDATED ON Nope").unwrap_err();
    assert_eq!(err.code(), ErrorCode::NotFound);
    // a known table, in any case, and every table still list
    for sql in ["SHOW OUTDATED ON gene", "SHOW OUTDATED"] {
        let listed = db.execute(sql).unwrap();
        assert!(listed.rows.is_empty(), "{sql}");
    }
}

/// A typo'd column in `START CONTENT APPROVAL` fails as a SELECT of it
/// does, instead of starting an approval that monitors nothing; the
/// table's config is left as it was.
#[test]
fn content_approval_on_an_unknown_column_is_not_found() {
    let mut db = Database::new_in_memory();
    for sql in ["CREATE TABLE T (K INT, V TEXT)", "CREATE USER bob"] {
        db.execute(sql).unwrap();
    }
    let select = db.execute("SELECT Nope FROM T").unwrap_err();
    assert_eq!(select.code(), ErrorCode::NotFound);
    let start = "START CONTENT APPROVAL ON T COLUMNS Nope APPROVED BY bob";
    assert_eq!(db.execute(start).unwrap_err().code(), select.code());
    assert!(db.approval().config("T").is_none(), "nothing started");
    // with one config in place, a bad restart keeps it
    db.execute("START CONTENT APPROVAL ON T COLUMNS v APPROVED BY bob")
        .unwrap();
    let err = db
        .execute("START CONTENT APPROVAL ON T COLUMNS K, Nope APPROVED BY bob")
        .unwrap_err();
    assert_eq!(err.code(), ErrorCode::NotFound);
    let config = db.approval().config("T").cloned().unwrap();
    assert_eq!(config.columns, Some(vec!["v".to_string()]));
}

/// `START CONTENT APPROVAL … APPROVED BY` names a user or a group with a
/// member: a misspelt approver would leave every decision to admin, so
/// it is refused and the table's config is left as it was.
#[test]
fn content_approval_by_an_unknown_principal_is_not_found() {
    let mut db = Database::new_in_memory();
    for sql in ["CREATE TABLE T (K INT, V TEXT)", "CREATE USER bob"] {
        db.execute(sql).unwrap();
    }
    let start = "START CONTENT APPROVAL ON T APPROVED BY nobody_at_all";
    assert_eq!(db.execute(start).unwrap_err().code(), ErrorCode::NotFound);
    assert!(db.approval().config("T").is_none(), "nothing started");
    db.execute("START CONTENT APPROVAL ON T COLUMNS v APPROVED BY bob")
        .unwrap();
    let err = db
        .execute("START CONTENT APPROVAL ON T COLUMNS K APPROVED BY nobody_at_all")
        .unwrap_err();
    assert_eq!(err.code(), ErrorCode::NotFound, "{err}");
    let config = db.approval().config("T").cloned().unwrap();
    assert_eq!(config.columns, Some(vec!["v".to_string()]));
}

/// `GRANT` and `REVOKE` name a user or a group with a member; a
/// misspelt name is refused rather than granting to no one.
#[test]
fn grant_to_an_unknown_principal_is_not_found() {
    let mut db = db_with_gene();
    for sql in [
        "GRANT INSERT ON Gene TO nobody_at_all",
        "REVOKE INSERT ON Gene FROM nobody_at_all",
        // a group is a name some user is a member of
        "GRANT SELECT ON Gene TO lab",
    ] {
        let err = db.execute(sql).unwrap_err();
        assert_eq!(err.code(), ErrorCode::NotFound, "{sql}");
    }
    for sql in [
        "CREATE USER alice IN GROUP lab",
        "GRANT INSERT ON Gene TO ALICE",
        "GRANT SELECT ON Gene TO lab",
        "REVOKE SELECT ON Gene FROM lab",
        "REVOKE INSERT ON Gene FROM alice",
    ] {
        db.execute(sql).unwrap();
    }
}

#[test]
fn duplicate_table_already_exists() {
    let mut db = db_with_gene();
    let err = db.execute("CREATE TABLE Gene (X INT)").unwrap_err();
    assert_eq!(err.code(), ErrorCode::AlreadyExists);
}

#[test]
fn wrong_value_type_is_type_mismatch() {
    let mut db = db_with_gene();
    let err = db
        .execute("INSERT INTO Gene VALUES ('JW0001', 'not-an-int')")
        .unwrap_err();
    assert_eq!(err.code(), ErrorCode::TypeMismatch);
}

#[test]
fn semantic_violation_is_invalid() {
    let mut db = db_with_gene();
    let err = db.execute("CREATE TABLE Dup (a INT, a TEXT)").unwrap_err();
    assert_eq!(err.code(), ErrorCode::Invalid);
}

#[test]
fn auth_denial_is_unauthorized() {
    let mut db = db_with_gene();
    db.execute("CREATE USER mallory").unwrap();
    let err = db.execute_as("DROP TABLE Gene", "mallory").unwrap_err();
    assert_eq!(err.code(), ErrorCode::Unauthorized);
}

#[test]
fn double_decision_is_approval_error() {
    let mut db = db_with_gene();
    db.execute("CREATE USER intern").unwrap();
    db.execute("GRANT INSERT ON Gene TO intern").unwrap();
    db.execute("START CONTENT APPROVAL ON Gene APPROVED BY admin")
        .unwrap();
    db.execute_as("INSERT INTO Gene VALUES ('JW0002', 7)", "intern")
        .unwrap();
    let id = db.pending_operations(None).unwrap()[0].id.raw();
    db.execute(&format!("APPROVE OPERATION {id}")).unwrap();
    let err = db.execute(&format!("APPROVE OPERATION {id}")).unwrap_err();
    assert_eq!(err.code(), ErrorCode::Approval);
}

#[test]
fn rule_cycle_is_dependency_error() {
    let mut db = Database::new_in_memory();
    db.execute("CREATE TABLE T (a TEXT, b TEXT)").unwrap();
    db.execute("CREATE DEPENDENCY RULE r1 FROM T.a TO T.b VIA PROCEDURE 'p'")
        .unwrap();
    let err = db
        .execute("CREATE DEPENDENCY RULE r2 FROM T.b TO T.a VIA PROCEDURE 'q'")
        .unwrap_err();
    assert_eq!(err.code(), ErrorCode::Dependency);
}

#[test]
fn storage_and_io_codes() {
    // storage failures need a corrupted heap to trigger end-to-end; the
    // constructor contract is what clients rely on
    let err = BdbmsError::storage("page overflow");
    assert_eq!(err.code(), ErrorCode::Storage);
    assert_eq!(err.kind(), "storage");
    // io errors arrive via the std conversion
    let err: BdbmsError = std::io::Error::other("disk gone").into();
    assert_eq!(err.code(), ErrorCode::Io);
}

#[test]
fn damaged_database_file_is_corrupt() {
    // a real end-to-end trigger: scribble over a durable database's page
    // file and try to open it
    let dir = std::env::temp_dir().join(format!("bdbms-corrupt-code-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let mut db = Database::create(&dir).unwrap();
        db.execute("CREATE TABLE Gene (GID TEXT)").unwrap();
        db.close().unwrap();
    }
    std::fs::write(dir.join("data.bdb"), vec![0xAB; 8192]).unwrap();
    let err = match Database::open(&dir) {
        Ok(_) => panic!("a scribbled-over page file must not open"),
        Err(e) => e,
    };
    assert_eq!(err.code(), ErrorCode::Corrupt);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn runtime_expression_failure_is_eval() {
    let mut db = db_with_gene();
    let err = db
        .execute("SELECT * FROM Gene WHERE Len / 0 = 1")
        .unwrap_err();
    assert_eq!(err.code(), ErrorCode::Eval);
}

#[test]
fn bad_bind_is_param_mismatch() {
    let mut db = db_with_gene();
    let mut session = db.session("admin");
    let stmt = session
        .prepare("SELECT GID FROM Gene WHERE Len = ?")
        .unwrap();
    let err = session.execute(&stmt, &[]).unwrap_err();
    assert_eq!(err.code(), ErrorCode::ParamMismatch);
    let err = session
        .execute(&stmt, &[Value::Int(1), Value::Int(2)])
        .unwrap_err();
    assert_eq!(err.code(), ErrorCode::ParamMismatch);
}

#[test]
fn bad_transaction_state_is_txn_state() {
    let mut db = db_with_gene();
    // COMMIT / ROLLBACK outside a transaction
    let err = db.execute("COMMIT").unwrap_err();
    assert_eq!(err.code(), ErrorCode::TxnState);
    let err = db.execute("ROLLBACK").unwrap_err();
    assert_eq!(err.code(), ErrorCode::TxnState);
    // nested BEGIN
    db.execute("BEGIN").unwrap();
    let err = db.execute("BEGIN").unwrap_err();
    assert_eq!(err.code(), ErrorCode::TxnState);
    // unknown savepoint
    let err = db.execute("ROLLBACK TO nowhere").unwrap_err();
    assert_eq!(err.code(), ErrorCode::TxnState);
    db.execute("ROLLBACK").unwrap();
}

#[test]
fn every_code_is_covered_and_distinct() {
    // the assertions above cover each variant; this pins the full set so
    // adding a code without a test shows up here
    assert_eq!(ErrorCode::ALL.len(), 14);
}
