//! End-to-end tests for the paper's curation machinery: local dependency
//! tracking (§5, Figures 9–10), content-based approval (§6, Figure 11),
//! provenance (§4, Figure 8), and GRANT/REVOKE authorization.

use bdbms_common::Value;
use bdbms_core::provenance::{ProvOp, ProvenanceRecord};
use bdbms_core::Database;

/// Build the Figure 9 scenario: Gene + Protein tables, rules r1/r2, and a
/// registered executable prediction tool `P` (first character of each
/// codon — a stand-in translation with the right shape).
fn figure9_db() -> Database {
    let mut db = Database::new_in_memory();
    db.execute("CREATE TABLE Gene (GID TEXT, GName TEXT, GSequence TEXT)")
        .unwrap();
    db.execute("CREATE TABLE Protein (PName TEXT, GID TEXT, PSequence TEXT, PFunction TEXT)")
        .unwrap();
    db.register_procedure("P", |args| match &args[0] {
        Value::Text(dna) => Value::Text(translate(dna)),
        _ => Value::Null,
    });
    db.execute(
        "CREATE DEPENDENCY RULE r1 FROM Gene.GSequence TO Protein.PSequence \
         VIA PROCEDURE 'P' EXECUTABLE LINK Gene.GID = Protein.GID",
    )
    .unwrap();
    db.execute(
        "CREATE DEPENDENCY RULE r2 FROM Protein.PSequence TO Protein.PFunction \
         VIA PROCEDURE 'lab-experiment'",
    )
    .unwrap();
    for (gid, name, seq) in [
        ("JW0080", "mraW", "ATGATGGAAAAA"),
        ("JW0082", "ftsI", "ATGAAAGCAGCA"),
        ("JW0055", "yabP", "ATGAAAGTATCA"),
    ] {
        db.execute(&format!(
            "INSERT INTO Gene VALUES ('{gid}', '{name}', '{seq}')"
        ))
        .unwrap();
    }
    for (pname, gid, fun) in [
        ("mraW", "JW0080", "Exhibitor"),
        ("ftsI", "JW0082", "Cell wall formation"),
        ("yabP", "JW0055", "Hypothetical protein"),
    ] {
        let gseq = gene_seq(&mut db, gid);
        db.execute(&format!(
            "INSERT INTO Protein VALUES ('{pname}', '{gid}', '{}', '{fun}')",
            translate(&gseq)
        ))
        .unwrap();
    }
    db
}

/// Toy stand-in for the prediction tool: one residue per codon.
fn translate(dna: &str) -> String {
    dna.as_bytes().chunks(3).map(|c| c[0] as char).collect()
}

fn gene_seq(db: &mut Database, gid: &str) -> String {
    let qr = db
        .execute(&format!("SELECT GSequence FROM Gene WHERE GID = '{gid}'"))
        .unwrap();
    qr.rows[0].values[0].to_string()
}

fn protein_row(db: &mut Database, gid: &str) -> (String, String) {
    let qr = db
        .execute(&format!(
            "SELECT PSequence, PFunction FROM Protein WHERE GID = '{gid}'"
        ))
        .unwrap();
    (
        qr.rows[0].values[0].to_string(),
        qr.rows[0].values[1].to_string(),
    )
}

#[test]
fn figure10_gene_update_recomputes_sequence_outdates_function() {
    let mut db = figure9_db();
    // modify the sequences of JW0080 and JW0082 (the paper's example)
    for gid in ["JW0080", "JW0082"] {
        db.execute(&format!(
            "UPDATE Gene SET GSequence = 'GTGGTGGTGGTG' WHERE GID = '{gid}'"
        ))
        .unwrap();
    }
    // PSequence was recomputed by P automatically — bitmap bit stays 0
    for gid in ["JW0080", "JW0082"] {
        let (pseq, _) = protein_row(&mut db, gid);
        assert_eq!(pseq, translate("GTGGTGGTGGTG"));
    }
    // PFunction cannot be recomputed (lab experiment) — marked outdated
    let outdated = db.execute("SHOW OUTDATED ON Protein").unwrap();
    let cells: Vec<(String, String)> = outdated
        .rows
        .iter()
        .map(|r| (r.values[1].to_string(), r.values[2].to_string()))
        .collect();
    assert_eq!(cells.len(), 2, "{cells:?}");
    assert!(cells.iter().all(|(_, c)| c == "PFunction"));
    // untouched gene's protein is clean
    let all = db.execute("SHOW OUTDATED").unwrap();
    assert_eq!(all.rows.len(), 2);
}

#[test]
fn outdated_cells_propagate_annotation_in_queries() {
    // §5: "the database should propagate with those items an annotation
    // specifying that the query answer may not be correct"
    let mut db = figure9_db();
    db.execute("UPDATE Gene SET GSequence = 'CCCCCCCCC' WHERE GID = 'JW0080'")
        .unwrap();
    let qr = db
        .execute("SELECT PFunction FROM Protein WHERE GID = 'JW0080'")
        .unwrap();
    let anns: Vec<String> = qr.rows[0].anns[0].iter().map(|a| a.text()).collect();
    assert_eq!(anns.len(), 1);
    assert!(anns[0].contains("outdated"));
    // AWHERE can select exactly the outdated tuples
    let qr = db
        .execute("SELECT GID FROM Protein AWHERE FROM outdated")
        .unwrap();
    assert_eq!(qr.rows.len(), 1);
    assert_eq!(qr.rows[0].values[0].to_string(), "JW0080");
}

#[test]
fn validate_clears_outdated_without_modification() {
    // §5 "Validating outdated data": a gene change may not affect the
    // protein function; revalidation clears the mark without a new value.
    let mut db = figure9_db();
    db.execute("UPDATE Gene SET GSequence = 'AAAAAAAAA' WHERE GID = 'JW0055'")
        .unwrap();
    assert_eq!(db.execute("SHOW OUTDATED").unwrap().rows.len(), 1);
    let (_, fun_before) = protein_row(&mut db, "JW0055");
    db.execute("VALIDATE Protein COLUMNS PFunction WHERE GID = 'JW0055'")
        .unwrap();
    assert_eq!(db.execute("SHOW OUTDATED").unwrap().rows.len(), 0);
    let (_, fun_after) = protein_row(&mut db, "JW0055");
    assert_eq!(fun_before, fun_after, "value untouched by validation");
}

#[test]
fn non_executable_chain_marks_transitively() {
    // If the prediction tool is NOT registered, PSequence itself is marked
    // outdated, and PFunction is marked transitively (derived Rule 4).
    let mut db = Database::new_in_memory();
    db.execute("CREATE TABLE Gene (GID TEXT, GSequence TEXT)")
        .unwrap();
    db.execute("CREATE TABLE Protein (GID TEXT, PSequence TEXT, PFunction TEXT)")
        .unwrap();
    // note: rule says EXECUTABLE but no procedure body is registered →
    // the engine cannot run it and falls back to marking
    db.execute(
        "CREATE DEPENDENCY RULE r1 FROM Gene.GSequence TO Protein.PSequence \
         VIA PROCEDURE 'P' EXECUTABLE LINK Gene.GID = Protein.GID",
    )
    .unwrap();
    db.execute(
        "CREATE DEPENDENCY RULE r2 FROM Protein.PSequence TO Protein.PFunction \
         VIA PROCEDURE 'lab-experiment'",
    )
    .unwrap();
    db.execute("INSERT INTO Gene VALUES ('g1', 'ATG')").unwrap();
    db.execute("INSERT INTO Protein VALUES ('g1', 'M', 'kinase')")
        .unwrap();
    db.execute("UPDATE Gene SET GSequence = 'GTG' WHERE GID = 'g1'")
        .unwrap();
    let qr = db.execute("SHOW OUTDATED ON Protein").unwrap();
    let cols: Vec<String> = qr.rows.iter().map(|r| r.values[2].to_string()).collect();
    assert!(cols.contains(&"PSequence".to_string()));
    assert!(cols.contains(&"PFunction".to_string()));
}

/// `LINK Gene.GID = Protein.GID` matches rows as the join `G.GID = P.GID`
/// does: with SQL `=`, under which a NULL key equals nothing — not
/// another NULL.  An update of the NULL-keyed gene must neither mark nor
/// recompute the NULL-keyed proteins, for a marking rule and for an
/// executable one alike.
#[test]
fn a_null_link_key_links_no_row() {
    for executable in [false, true] {
        let mut db = Database::new_in_memory();
        db.execute("CREATE TABLE Gene (GID TEXT, GSequence TEXT)")
            .unwrap();
        db.execute("CREATE TABLE Protein (GID TEXT, PSequence TEXT)")
            .unwrap();
        db.register_procedure("P", |args| match &args[0] {
            Value::Text(dna) => Value::Text(translate(dna)),
            _ => Value::Null,
        });
        let via = if executable {
            "'P' EXECUTABLE"
        } else {
            "'lab-experiment'"
        };
        db.execute(&format!(
            "CREATE DEPENDENCY RULE r1 FROM Gene.GSequence TO Protein.PSequence \
             VIA PROCEDURE {via} LINK Gene.GID = Protein.GID"
        ))
        .unwrap();
        db.execute("INSERT INTO Gene VALUES ('g1', 'ATGATG'), (NULL, 'CCC')")
            .unwrap();
        db.execute("INSERT INTO Protein VALUES (NULL, 'x'), ('g1', 'MM'), (NULL, 'y')")
            .unwrap();
        let joined = db
            .execute("SELECT P.PSequence FROM Gene G, Protein P WHERE G.GID = P.GID")
            .unwrap();
        assert_eq!(joined.rows.len(), 1, "the join pairs the keyed rows only");

        db.execute("UPDATE Gene SET GSequence = 'GTGGTG' WHERE GID IS NULL")
            .unwrap();
        let outdated = db.execute("SHOW OUTDATED ON Protein").unwrap();
        assert!(
            outdated.rows.is_empty(),
            "executable {executable}: {outdated:?}"
        );
        let seqs = db
            .execute("SELECT PSequence FROM Protein WHERE GID IS NULL")
            .unwrap();
        let seqs: Vec<String> = seqs.rows.iter().map(|r| r.values[0].to_string()).collect();
        assert_eq!(seqs, ["x", "y"], "executable {executable}");

        // the keyed gene still reaches its protein
        db.execute("UPDATE Gene SET GSequence = 'GTGGTG' WHERE GID = 'g1'")
            .unwrap();
        let (outdated, seq) = (
            db.execute("SHOW OUTDATED ON Protein").unwrap(),
            db.execute("SELECT PSequence FROM Protein WHERE GID = 'g1'")
                .unwrap(),
        );
        if executable {
            assert!(outdated.rows.is_empty());
            assert_eq!(seq.rows[0].values[0], Value::Text(translate("GTGGTG")));
        } else {
            let rows: Vec<&Value> = outdated.rows.iter().map(|r| &r.values[1]).collect();
            assert_eq!(rows, [&Value::Int(1)]);
        }
    }
}

#[test]
fn multi_source_rule_blast_recomputes() {
    // Figure 9(b): Evalue depends on (Gene1, Gene2) via BLAST-2.2.15
    let mut db = Database::new_in_memory();
    db.execute("CREATE TABLE GeneMatching (Gene1 TEXT, Gene2 TEXT, Evalue FLOAT)")
        .unwrap();
    db.register_procedure("BLAST-2.2.15", |args| {
        // toy E-value: shared prefix length between the two sequences
        let (a, b) = (
            args[0].as_text().unwrap_or(""),
            args[1].as_text().unwrap_or(""),
        );
        let shared = a.bytes().zip(b.bytes()).take_while(|(x, y)| x == y).count();
        Value::Float(1.0 / (1.0 + shared as f64))
    });
    db.execute(
        "CREATE DEPENDENCY RULE r3 FROM GeneMatching.Gene1, GeneMatching.Gene2 \
         TO GeneMatching.Evalue VIA PROCEDURE 'BLAST-2.2.15' EXECUTABLE",
    )
    .unwrap();
    db.execute("INSERT INTO GeneMatching VALUES ('ATCCTGGTT', 'ATCCCGGTT', 0.5)")
        .unwrap();
    // insertion already recomputed the Evalue
    let qr = db.execute("SELECT Evalue FROM GeneMatching").unwrap();
    assert_eq!(qr.rows[0].values[0], Value::Float(1.0 / 5.0));
    // updating either source recomputes again; nothing is marked outdated
    db.execute("UPDATE GeneMatching SET Gene2 = 'ATCCTGGTT'")
        .unwrap();
    let qr = db.execute("SELECT Evalue FROM GeneMatching").unwrap();
    assert_eq!(qr.rows[0].values[0], Value::Float(1.0 / 10.0));
    assert_eq!(db.execute("SHOW OUTDATED").unwrap().rows.len(), 0);
}

#[test]
fn closures_and_derived_rules_via_api() {
    let db = figure9_db();
    let closure = db.dependencies().closure_of_attribute("Gene", "GSequence");
    assert_eq!(closure.len(), 2);
    let derived = db.dependencies().derived_rules();
    assert_eq!(derived.len(), 1);
    assert!(!derived[0].executable);
    let proc_closure = db.dependencies().closure_of_procedure("P");
    assert_eq!(proc_closure.len(), 2, "P affects PSequence and PFunction");
}

// ---- content-based approval (§6, Figure 11) ----

fn approval_db() -> Database {
    let mut db = figure9_db();
    db.execute("CREATE USER labadmin").unwrap();
    db.execute("CREATE USER alice IN GROUP lab1").unwrap();
    db.execute("GRANT SELECT, INSERT, UPDATE, DELETE ON Gene TO alice")
        .unwrap();
    db.execute("GRANT SELECT ON Protein TO alice").unwrap();
    db.execute("START CONTENT APPROVAL ON Gene COLUMNS GSequence APPROVED BY labadmin")
        .unwrap();
    db
}

#[test]
fn pending_update_visible_then_disapproved_and_undone() {
    let mut db = approval_db();
    let original = gene_seq(&mut db, "JW0080");
    db.execute_as(
        "UPDATE Gene SET GSequence = 'TTTTTTTTT' WHERE GID = 'JW0080'",
        "alice",
    )
    .unwrap();
    // pending yet visible (§6: users may view data pending approval)
    assert_eq!(gene_seq(&mut db, "JW0080"), "TTTTTTTTT");
    let pending = db.execute("SHOW PENDING OPERATIONS ON Gene").unwrap();
    assert_eq!(pending.rows.len(), 1);
    let id = pending.rows[0].values[0].as_int().unwrap();
    // labadmin disapproves → inverse UPDATE restores the old value
    db.execute_as(&format!("DISAPPROVE OPERATION {id}"), "labadmin")
        .unwrap();
    assert_eq!(gene_seq(&mut db, "JW0080"), original);
    // the undo itself went through dependency tracking: PSequence again
    // matches the original gene
    let (pseq, _) = protein_row(&mut db, "JW0080");
    assert_eq!(pseq, translate(&original));
    assert!(db
        .execute("SHOW PENDING OPERATIONS")
        .unwrap()
        .rows
        .is_empty());
}

#[test]
fn approve_keeps_change() {
    let mut db = approval_db();
    db.execute_as(
        "UPDATE Gene SET GSequence = 'CCCCCCCCC' WHERE GID = 'JW0082'",
        "alice",
    )
    .unwrap();
    let pending = db.execute("SHOW PENDING OPERATIONS").unwrap();
    let id = pending.rows[0].values[0].as_int().unwrap();
    db.execute_as(&format!("APPROVE OPERATION {id}"), "labadmin")
        .unwrap();
    assert_eq!(gene_seq(&mut db, "JW0082"), "CCCCCCCCC");
    // double decision fails
    assert!(db
        .execute_as(&format!("APPROVE OPERATION {id}"), "labadmin")
        .is_err());
}

#[test]
fn insert_and_delete_inverses() {
    let mut db = approval_db();
    // approval on Gene monitors all ops touching GSequence; INSERT touches
    // every column, so it is logged
    db.execute_as(
        "INSERT INTO Gene VALUES ('JW9999', 'newG', 'AAACCC')",
        "alice",
    )
    .unwrap();
    let pending = db.execute("SHOW PENDING OPERATIONS").unwrap();
    assert_eq!(pending.rows.len(), 1);
    let id = pending.rows[0].values[0].as_int().unwrap();
    db.execute_as(&format!("DISAPPROVE OPERATION {id}"), "labadmin")
        .unwrap();
    assert!(db
        .execute("SELECT * FROM Gene WHERE GID = 'JW9999'")
        .unwrap()
        .rows
        .is_empty());
    // DELETE: disapproval re-inserts the old tuple
    db.execute_as("DELETE FROM Gene WHERE GID = 'JW0055'", "alice")
        .unwrap();
    assert_eq!(
        db.execute("SELECT * FROM Gene").unwrap().rows.len(),
        2,
        "row deleted while pending"
    );
    let pending = db.execute("SHOW PENDING OPERATIONS").unwrap();
    let id = pending.rows[0].values[0].as_int().unwrap();
    db.execute_as(&format!("DISAPPROVE OPERATION {id}"), "labadmin")
        .unwrap();
    let qr = db
        .execute("SELECT GName FROM Gene WHERE GID = 'JW0055'")
        .unwrap();
    assert_eq!(qr.rows[0].values[0].to_string(), "yabP");
}

#[test]
fn approver_and_unmonitored_changes_bypass_log() {
    let mut db = approval_db();
    // labadmin's own updates are not logged
    db.execute("GRANT UPDATE ON Gene TO labadmin").unwrap();
    db.execute_as(
        "UPDATE Gene SET GSequence = 'GGG' WHERE GID = 'JW0080'",
        "labadmin",
    )
    .unwrap();
    assert!(db
        .execute("SHOW PENDING OPERATIONS")
        .unwrap()
        .rows
        .is_empty());
    // updates to unmonitored columns are not logged either
    db.execute_as(
        "UPDATE Gene SET GName = 'renamed' WHERE GID = 'JW0080'",
        "alice",
    )
    .unwrap();
    assert!(db
        .execute("SHOW PENDING OPERATIONS")
        .unwrap()
        .rows
        .is_empty());
    // STOP turns monitoring off entirely
    db.execute("STOP CONTENT APPROVAL ON Gene").unwrap();
    db.execute_as(
        "UPDATE Gene SET GSequence = 'AAA' WHERE GID = 'JW0080'",
        "alice",
    )
    .unwrap();
    assert!(db
        .execute("SHOW PENDING OPERATIONS")
        .unwrap()
        .rows
        .is_empty());
}

#[test]
fn only_approver_decides() {
    let mut db = approval_db();
    db.execute_as(
        "UPDATE Gene SET GSequence = 'TTT' WHERE GID = 'JW0080'",
        "alice",
    )
    .unwrap();
    let id = db.execute("SHOW PENDING OPERATIONS").unwrap().rows[0].values[0]
        .as_int()
        .unwrap();
    let err = db
        .execute_as(&format!("APPROVE OPERATION {id}"), "alice")
        .unwrap_err();
    assert_eq!(err.kind(), "unauthorized");
    // admin can always decide
    db.execute(&format!("APPROVE OPERATION {id}")).unwrap();
}

// ---- identity-based authorization (§6) ----

#[test]
fn grant_revoke_enforced() {
    let mut db = Database::new_in_memory();
    db.execute("CREATE TABLE Gene (GID TEXT)").unwrap();
    db.execute("CREATE USER mallory").unwrap();
    let err = db.execute_as("SELECT * FROM Gene", "mallory").unwrap_err();
    assert_eq!(err.kind(), "unauthorized");
    db.execute("GRANT SELECT ON Gene TO mallory").unwrap();
    assert!(db.execute_as("SELECT * FROM Gene", "mallory").is_ok());
    assert!(db
        .execute_as("INSERT INTO Gene VALUES ('x')", "mallory")
        .is_err());
    db.execute("REVOKE SELECT ON Gene FROM mallory").unwrap();
    assert!(db.execute_as("SELECT * FROM Gene", "mallory").is_err());
    // group grants
    db.execute("CREATE USER bob IN GROUP lab1").unwrap();
    db.execute("GRANT SELECT ON Gene TO lab1").unwrap();
    assert!(db.execute_as("SELECT * FROM Gene", "bob").is_ok());
    // non-admin cannot grant on someone else's table
    assert!(db
        .execute_as("GRANT SELECT ON Gene TO mallory", "bob")
        .is_err());
}

// ---- provenance (§4, Figure 8) ----

#[test]
fn figure8_source_queries() {
    let mut db = Database::new_in_memory();
    db.execute("CREATE TABLE T (id INT, v TEXT)").unwrap();
    db.execute("INSERT INTO T VALUES (1, 'a'), (2, 'b')")
        .unwrap();
    db.enable_provenance("T").unwrap();
    // copy from S2, then program P1 updates, then S3 overwrites column v
    db.record_provenance(
        "T",
        &[0, 1],
        &[0, 1],
        &ProvenanceRecord {
            source: "S2".into(),
            operation: ProvOp::Copy,
            program: None,
            time: 0,
        },
    )
    .unwrap();
    let t_copy = db.now();
    db.record_provenance(
        "T",
        &[0],
        &[1],
        &ProvenanceRecord {
            source: "P1".into(),
            operation: ProvOp::ProgramUpdate,
            program: Some("P1".into()),
            time: 0,
        },
    )
    .unwrap();
    let t_update = db.now();
    db.record_provenance(
        "T",
        &[0, 1],
        &[1],
        &ProvenanceRecord {
            source: "S3".into(),
            operation: ProvOp::Overwrite,
            program: None,
            time: 0,
        },
    )
    .unwrap();
    // Figure 8: "what is the source of this value at time T?"
    let at_copy = db.source_of("T", 0, 1, t_copy).unwrap().unwrap();
    assert_eq!(at_copy.source, "S2");
    let at_update = db.source_of("T", 0, 1, t_update).unwrap().unwrap();
    assert_eq!(at_update.source, "P1");
    let now = db.source_of("T", 0, 1, db.now()).unwrap().unwrap();
    assert_eq!(now.source, "S3");
    assert_eq!(now.operation, ProvOp::Overwrite);
    // id column of row 0 only ever saw the copy
    let id_src = db.source_of("T", 0, 0, db.now()).unwrap().unwrap();
    assert_eq!(id_src.source, "S2");
    // full history in order
    let hist = db.provenance_history("T", 0, 1).unwrap();
    assert_eq!(hist.len(), 3);
    assert_eq!(hist[0].source, "S2");
    assert_eq!(hist[2].source, "S3");
}

#[test]
fn provenance_writes_are_restricted() {
    // §4: end-users may not insert provenance; integration tools (the
    // PROVENANCE privilege) may.
    let mut db = Database::new_in_memory();
    db.execute("CREATE TABLE T (id INT)").unwrap();
    db.execute("INSERT INTO T VALUES (1)").unwrap();
    db.enable_provenance("T").unwrap();
    db.execute("CREATE USER enduser").unwrap();
    db.execute("GRANT SELECT ON T TO enduser").unwrap();
    db.execute("CREATE USER loader").unwrap();
    db.execute("GRANT SELECT, PROVENANCE ON T TO loader")
        .unwrap();
    let stmt = "ADD ANNOTATION TO T.provenance \
                VALUE '<Annotation><source>S1</source><operation>copy</operation></Annotation>' \
                ON (SELECT G.id FROM T G)";
    let err = db.execute_as(stmt, "enduser").unwrap_err();
    assert_eq!(err.kind(), "unauthorized");
    assert!(db.execute_as(stmt, "loader").is_ok());
    // schema enforcement rejects malformed provenance bodies
    let bad = "ADD ANNOTATION TO T.provenance VALUE 'free text' \
               ON (SELECT G.id FROM T G)";
    let err = db.execute_as(bad, "loader").unwrap_err();
    assert_eq!(err.kind(), "invalid");
    // and the provenance propagates through A-SQL like any annotation
    let qr = db
        .execute("SELECT id FROM T ANNOTATION(provenance)")
        .unwrap();
    assert_eq!(qr.rows[0].anns[0].len(), 1);
    assert!(qr.rows[0].anns[0][0].text().contains("S1"));
}

#[test]
fn deleting_source_row_outdates_dependents() {
    let mut db = figure9_db();
    db.execute("DELETE FROM Gene WHERE GID = 'JW0080'").unwrap();
    let qr = db.execute("SHOW OUTDATED ON Protein").unwrap();
    // both PSequence and PFunction of the dependent protein are stale
    let cols: Vec<String> = qr.rows.iter().map(|r| r.values[2].to_string()).collect();
    assert!(cols.contains(&"PSequence".to_string()), "{cols:?}");
    assert!(cols.contains(&"PFunction".to_string()));
}

#[test]
fn cycle_rejected_through_sql() {
    let mut db = figure9_db();
    let err = db
        .execute(
            "CREATE DEPENDENCY RULE bad FROM Protein.PFunction TO Gene.GSequence \
             VIA PROCEDURE 'X' LINK Protein.GID = Gene.GID",
        )
        .unwrap_err();
    assert_eq!(err.kind(), "dependency");
}
