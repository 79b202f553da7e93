//! Crash-recovery injection harness.
//!
//! The contract under test (ISSUE 5's acceptance criterion): a database
//! created via `Database::create(path)`, populated, and dropped without
//! a checkpoint recovers on `Database::open(path)` with **all committed
//! transactions visible and all uncommitted work gone**, byte-identical
//! to an oracle that executed exactly the committed prefix.
//!
//! Two injection axes:
//!
//! * **statement granularity** — the workload script is cut at every
//!   statement boundary, the process "dies" (`simulate_crash`: no
//!   checkpoint, no shutdown flush), and the reopened database is
//!   fingerprint-compared against an in-memory oracle that ran the same
//!   prefix (rolling back its open transaction, as a crash would);
//! * **byte granularity (mid-commit)** — the final commit's WAL frames
//!   are truncated at *every byte offset*, simulating a torn write in
//!   the middle of the commit sequence; recovery must come up clean at
//!   either the previous or the final commit point, never in between,
//!   never with a panic.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use bdbms_core::{Database, DurabilityOptions};
use bdbms_storage::{FaultInjector, FaultKind};

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bdbms-crash-{}-{name}.bdbms", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn copy_dir(src: &Path, dst: &Path) {
    fs::create_dir_all(dst).unwrap();
    for entry in fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        let to = dst.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &to);
        } else {
            fs::copy(entry.path(), &to).unwrap();
        }
    }
}

/// The workload: DDL, multi-row DML, an index, annotations in both
/// schemes, an archive, a deletion (feeding the deletion log), a
/// savepoint rollback inside a committed transaction, and a trailing
/// explicit transaction.  Statements run as admin.
const SCRIPT: &[&str] = &[
    "CREATE TABLE Gene (GID TEXT, GName TEXT, Len INT)",
    "INSERT INTO Gene VALUES ('JW0080','mraW',11), ('JW0082','ftsI',42)",
    "CREATE INDEX len_idx ON Gene (Len)",
    "CREATE ANNOTATION TABLE Curation ON Gene",
    "CREATE ANNOTATION TABLE Notes ON Gene SCHEME CELL",
    "ADD ANNOTATION TO Gene.Curation VALUE '<Annotation>checked</Annotation> ' \
     ON (SELECT G.GName FROM Gene G)",
    "INSERT INTO Gene VALUES ('JW0055','yabP',7)",
    "UPDATE Gene SET Len = 13 WHERE GID = 'JW0080'",
    "ADD ANNOTATION TO Gene.Notes VALUE 'cell note' \
     ON (SELECT G.GID FROM Gene G WHERE Len = 42)",
    "ARCHIVE ANNOTATION FROM Gene.Curation ON (SELECT G.GName FROM Gene G WHERE Len = 13)",
    "DELETE FROM Gene WHERE GID = 'JW0055'",
    "BEGIN",
    "INSERT INTO Gene VALUES ('JW0090','fruR',20)",
    "SAVEPOINT s",
    "INSERT INTO Gene VALUES ('JW0091','doomed',21)",
    "ROLLBACK TO s",
    "COMMIT",
    "BEGIN",
    "UPDATE Gene SET GName = 'renamed' WHERE Len = 42",
    "INSERT INTO Gene VALUES ('JW0099','tail',99)",
    "COMMIT",
];

/// Everything observable about every table, concatenated in name order.
fn database_fingerprint(db: &Database) -> String {
    fingerprint(db, false)
}

/// [`database_fingerprint`] with logical-clock values (annotation
/// `created`, deletion-log `time`) blanked.  A statement that fails
/// mid-flight still consumes clock ticks, so the surviving state of a
/// faulted run matches its oracle in everything *except* these
/// counters — the fault harness compares clocklessly.
fn clockless_fingerprint(db: &Database) -> String {
    fingerprint(db, true)
}

fn fingerprint(db: &Database, redact_clock: bool) -> String {
    let mut out = String::new();
    for t in db.catalog().tables() {
        let rows = t.iter_rows().collect::<Result<Vec<_>, _>>().unwrap();
        let indexes: Vec<(String, usize, usize)> = t
            .indexes()
            .iter()
            .map(|i| (i.name.clone(), i.column, i.len()))
            .collect();
        #[allow(clippy::type_complexity)]
        let anns: Vec<(String, usize, Vec<(u64, bool, String, u64, String)>)> = db
            .catalog()
            .ann_set_names(&t.name)
            .into_iter()
            .map(|name| {
                let s = db.catalog().annotation_set(&t.name, &name).unwrap();
                (
                    name,
                    s.index().attachment_records(),
                    s.annotations()
                        .unwrap()
                        .iter()
                        .map(|a| {
                            (
                                a.id.raw(),
                                a.archived,
                                a.raw.clone(),
                                if redact_clock { 0 } else { a.created },
                                a.creator.clone(),
                            )
                        })
                        .collect(),
                )
            })
            .collect();
        let outdated: Vec<(usize, usize)> = t.outdated.iter_set().collect();
        let deleted: Vec<String> = db
            .deleted_log(&t.name)
            .unwrap()
            .iter()
            .map(|d| {
                let time = if redact_clock { 0 } else { d.time };
                format!(
                    "{}:{:?}:{:?}@{}by{}",
                    d.row_no, d.values, d.annotation, time, d.user
                )
            })
            .collect();
        out.push_str(&format!(
            "table={} rows={rows:?} indexes={indexes:?} anns={anns:?} \
             outdated={outdated:?} deleted={deleted:?}\n",
            t.name
        ));
    }
    out
}

/// The oracle: an in-memory database that executed `statements` and then
/// "crashed" (its open transaction, if any, rolls back — uncommitted
/// work is gone).
fn oracle_fingerprint(statements: &[&str]) -> String {
    let mut db = Database::new_in_memory();
    for s in statements {
        db.execute(s).unwrap();
    }
    if db.in_transaction() {
        db.execute("ROLLBACK").unwrap();
    }
    database_fingerprint(&db)
}

#[test]
fn crash_after_every_statement_recovers_the_committed_prefix() {
    for cut in 0..=SCRIPT.len() {
        let dir = tmp(&format!("stmt-{cut}"));
        {
            let mut db = Database::create(&dir).unwrap();
            for s in &SCRIPT[..cut] {
                db.execute(s).unwrap();
            }
            db.simulate_crash();
        }
        let db = Database::open(&dir).unwrap();
        assert_eq!(
            database_fingerprint(&db),
            oracle_fingerprint(&SCRIPT[..cut]),
            "crash after statement {cut} (`{}`) diverged",
            if cut == 0 {
                "<create>"
            } else {
                SCRIPT[cut - 1]
            }
        );
        drop(db);
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn torn_write_at_every_byte_of_the_final_commit() {
    // Build the full workload once; the final explicit transaction (two
    // statements) is the torn-write victim.
    let master = tmp("torn-master");
    {
        let mut db = Database::create(&master).unwrap();
        for s in SCRIPT {
            db.execute(s).unwrap();
        }
        db.simulate_crash();
    }
    let full = oracle_fingerprint(SCRIPT);
    // oracle for "the final transaction never committed"
    let prev = oracle_fingerprint(&SCRIPT[..SCRIPT.len() - 4]);
    assert_ne!(full, prev, "the final transaction must be observable");
    // ... and for one more transaction committed after that recovery
    let next_txn = "INSERT INTO Gene VALUES ('JW0100','next',100)";
    let mut prev_then_next = SCRIPT[..SCRIPT.len() - 4].to_vec();
    prev_then_next.push(next_txn);
    let prev_then_next = oracle_fingerprint(&prev_then_next);

    // the WAL has exactly one segment here; find it and its length
    let wal_dir = master.join("wal");
    let seg: PathBuf = fs::read_dir(&wal_dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|x| x == "log"))
        .expect("one WAL segment");
    let seg_len = fs::metadata(&seg).unwrap().len();
    // Cut the log at every byte offset across the final transaction's
    // frames (2 row records + the commit record fit well inside the last
    // 200 bytes).  A cut of 0 keeps the commit record → the final
    // transaction survives; every deeper cut tears some part of the
    // commit sequence → recovery must come up at exactly the previous
    // commit point: never a partial transaction, never a panic.
    let window = 200.min(seg_len - 16);
    let mut tails_reported = 0u32;
    for cut in 0..=window {
        let dir = tmp("torn-case");
        copy_dir(&master, &dir);
        let seg_copy = dir.join("wal").join(seg.file_name().unwrap());
        let f = fs::OpenOptions::new().write(true).open(&seg_copy).unwrap();
        f.set_len(seg_len - cut).unwrap();
        f.sync_all().unwrap();
        drop(f);
        let mut db = Database::open(&dir).unwrap();
        let got = database_fingerprint(&db);
        let rec = db.last_recovery().unwrap().clone();
        if cut == 0 {
            assert_eq!(got, full, "an intact log keeps the final transaction");
        } else {
            assert_eq!(
                got, prev,
                "torn write at -{cut} bytes must recover to the previous \
                 commit point, nothing in between"
            );
            assert!(
                rec.discarded_ops > 0 || rec.torn_bytes > 0,
                "a torn mid-commit tail must be reported (cut={cut})"
            );
            if rec.discarded_ops > 0 {
                // the commit record was torn but whole op frames
                // survived: the classic "uncommitted tail discarded" case
                tails_reported += 1;
                // The discarded frames must be gone from the log, not
                // just skipped once: left in place, the next commit
                // record would make them replayable.
                db.execute(next_txn).unwrap();
                db.simulate_crash();
                db = Database::open(&dir).unwrap();
                assert_eq!(
                    database_fingerprint(&db),
                    prev_then_next,
                    "a commit after recovering from the torn tail at -{cut} \
                     bytes resurrected part of the discarded transaction"
                );
            }
        }
        drop(db);
        let _ = fs::remove_dir_all(&dir);
    }
    assert!(
        tails_reported > 0,
        "some cuts must leave intact op frames with no commit record"
    );
    let _ = fs::remove_dir_all(&master);
}

#[test]
fn in_flight_transaction_is_invisible_after_crash() {
    let dir = tmp("inflight");
    {
        let mut db = Database::create(&dir).unwrap();
        db.execute("CREATE TABLE T (K INT)").unwrap();
        db.execute("INSERT INTO T VALUES (1)").unwrap();
        db.execute("BEGIN").unwrap();
        db.execute("INSERT INTO T VALUES (2)").unwrap();
        db.execute("INSERT INTO T VALUES (3)").unwrap();
        // no COMMIT: the records never reached the WAL at all
        db.simulate_crash();
    }
    let mut db = Database::open(&dir).unwrap();
    let r = db.execute("SELECT K FROM T").unwrap();
    assert_eq!(r.rows.len(), 1, "uncommitted work must be gone");
    assert_eq!(db.last_recovery().unwrap().discarded_ops, 0);
    let _ = fs::remove_dir_all(&dir);
}

/// Regression: a crash in the window between the checkpoint's image
/// rename and its WAL truncation leaves the *new* image next to the
/// *old* (pre-checkpoint) log.  The image's WAL frontier makes recovery
/// skip those already-folded entries instead of double-applying them
/// (which used to fail the open with "row already exists" → Corrupt).
#[test]
fn crash_between_image_rename_and_wal_truncation() {
    let dir = tmp("rename-window");
    let pre_ckpt_wal = tmp("rename-window-walcopy");
    {
        let mut db = Database::create(&dir).unwrap();
        db.execute("CREATE TABLE T (K INT, V TEXT)").unwrap();
        db.execute("INSERT INTO T VALUES (1,'one'), (2,'two')")
            .unwrap();
        db.execute("UPDATE T SET V = 'uno' WHERE K = 1").unwrap();
        // preserve the pre-checkpoint log, then checkpoint (which folds
        // it into the image and truncates it)
        copy_dir(&dir.join("wal"), &pre_ckpt_wal);
        db.checkpoint().unwrap();
        db.simulate_crash();
    }
    // reconstruct the crash window: new image + old WAL
    fs::remove_dir_all(dir.join("wal")).unwrap();
    copy_dir(&pre_ckpt_wal, &dir.join("wal"));
    let mut db = Database::open(&dir).unwrap();
    let rec = db.last_recovery().unwrap();
    assert_eq!(
        rec.replayed_commits, 0,
        "entries below the image's WAL frontier are already applied"
    );
    let r = db.execute("SELECT K, V FROM T").unwrap();
    assert_eq!(r.rows.len(), 2, "no double-apply, no lost rows");
    assert_eq!(
        db.execute("SELECT V FROM T WHERE K = 1").unwrap().rows[0].values[0],
        bdbms_common::Value::Text("uno".into())
    );
    drop(db);
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&pre_ckpt_wal);
}

// ---------------------------------------------------------------------
// Deterministic fault injection (the third injection axis)
// ---------------------------------------------------------------------

/// Harness options: an aggressive auto-checkpoint interval so the
/// workload crosses several full checkpoint cycles, putting image
/// writes, fsyncs, and renames inside the injected window.
fn fault_opts(inj: Option<Arc<FaultInjector>>) -> DurabilityOptions {
    DurabilityOptions {
        checkpoint_every_commits: 4,
        fault_injector: inj,
        ..Default::default()
    }
}

/// Run the scripted workload against a fresh database at `dir`, arming
/// `kind` at operation index `n` — counted from *after* the create, to
/// line up with the counting pass.  Returns one bool per statement: did
/// it succeed?  Panics are the one outcome never allowed.
fn run_workload(dir: &Path, inj: &Arc<FaultInjector>, n: u64, kind: FaultKind) -> Vec<bool> {
    let mut db = Database::create_with(dir, fault_opts(Some(inj.clone()))).unwrap();
    inj.arm(n, kind);
    let ok: Vec<bool> = SCRIPT.iter().map(|s| db.execute(s).is_ok()).collect();
    // reopen must see only what the *disk* holds: disarm so recovery
    // itself runs on a healthy device
    inj.disarm();
    db.simulate_crash();
    ok
}

/// The oracle for a faulted run: execute the statements that succeeded;
/// a failed `COMMIT` rolled the real transaction back, so the oracle
/// rolls back too.  `also` optionally includes one failed statement (the
/// durable-but-reported-failed ambiguity window).
fn oracle_with_failures(ok: &[bool], also: Option<usize>) -> String {
    let mut db = Database::new_in_memory();
    for (i, s) in SCRIPT.iter().enumerate() {
        if ok[i] || also == Some(i) {
            db.execute(s).unwrap();
        } else if s.trim().eq_ignore_ascii_case("COMMIT") {
            db.execute("ROLLBACK").unwrap();
        }
    }
    if db.in_transaction() {
        db.execute("ROLLBACK").unwrap();
    }
    clockless_fingerprint(&db)
}

/// The exhaustive sweep: replay the whole workload once per
/// (operation index, fault kind) pair, injecting exactly that fault at
/// exactly that I/O, then crash + reopen on a healthy device and check
/// the recovered state against the oracle.
///
/// The durability contract per run:
///
/// * no panic, ever;
/// * error-shaped faults (transient, permanent, torn): the reopened
///   database fingerprints identically to the oracle over the
///   statements that reported success (a failed statement may at most
///   be durable anyway if it died *after* its commit barrier — both
///   candidates are accepted);
/// * bit flips are *silent*, so the write path cannot reject them — but
///   the reopen must then either recover a state from the same oracle
///   family or refuse with `Corrupt` (the page checksum / header CRC /
///   frame CRC catching the flip).  Serving garbage is the one failure
///   mode checked against.
#[test]
fn every_io_fault_index_recovers_or_fails_loudly() {
    // Pass 1: count the workload's I/O operations on a healthy device.
    let inj = FaultInjector::new();
    let count_dir = tmp("fault-count");
    {
        let mut db = Database::create_with(&count_dir, fault_opts(Some(inj.clone()))).unwrap();
        inj.arm(u64::MAX, FaultKind::TransientError); // reset counter, never fires
        for s in SCRIPT {
            db.execute(s).unwrap();
        }
        db.simulate_crash();
    }
    let total_ops = inj.op_count();
    let _ = fs::remove_dir_all(&count_dir);
    assert!(
        total_ops > 30,
        "the workload must exercise a healthy spread of I/O (saw {total_ops})"
    );

    // Pass 2: the sweep.  Exhaustive in release; debug builds stride so
    // the dev loop stays quick (CI runs the release leg).
    let stride = if cfg!(debug_assertions) { 5 } else { 1 };
    for n in (0..total_ops).step_by(stride) {
        let kinds = [
            FaultKind::TransientError,
            FaultKind::PermanentError,
            FaultKind::TornWrite {
                bytes: 1 + (n as usize * 997) % 4000,
            },
            FaultKind::BitFlip {
                byte: (n as usize * 131) % 8192,
            },
        ];
        for kind in kinds {
            let dir = tmp(&format!("fault-{n}-{kind:?}"));
            let inj = FaultInjector::new();
            let ok = run_workload(&dir, &inj, n, kind);
            let first_failed = ok.iter().position(|&b| !b);
            match Database::open(&dir) {
                Ok(db) => {
                    // A statement that fails mid-flight still burns logical
                    // clock ticks the oracle never sees, so the comparison
                    // ignores clock-derived fields.
                    let got = clockless_fingerprint(&db);
                    let clean = oracle_with_failures(&ok, None);
                    let matched = got == clean
                        || first_failed.is_some_and(|f| got == oracle_with_failures(&ok, Some(f)));
                    assert!(
                        matched,
                        "fault {kind:?} at op {n}: recovered state matches no \
                         oracle\nstatement outcomes: {ok:?}\ngot:\n{got}\n\
                         oracle(successes only):\n{clean}"
                    );
                }
                Err(e) => {
                    assert!(
                        matches!(kind, FaultKind::BitFlip { .. }),
                        "fault {kind:?} at op {n}: only silent corruption may \
                         survive to reopen, got error: {e}"
                    );
                    assert_eq!(
                        e.code(),
                        bdbms_common::ErrorCode::Corrupt,
                        "a flipped bit must be *detected*, not mangled: {e}"
                    );
                }
            }
            let _ = fs::remove_dir_all(&dir);
        }
    }
}

/// A transient commit-path failure is retried and the statement
/// *succeeds* — the retry loop in `wal_commit` absorbs one-shot faults.
#[test]
fn transient_commit_fault_is_absorbed_by_retry() {
    let dir = tmp("transient-retry");
    let inj = FaultInjector::new();
    let mut db = Database::create_with(&dir, fault_opts(Some(inj.clone()))).unwrap();
    db.execute("CREATE TABLE T (K INT)").unwrap();
    // the first insert allocates the heap page; the second then performs
    // exactly one I/O — its commit's WAL flush, the retryable barrier
    db.execute("INSERT INTO T VALUES (1)").unwrap();
    inj.arm(0, FaultKind::TransientError);
    db.execute("INSERT INTO T VALUES (2)")
        .expect("a transient I/O blip must not fail the statement");
    assert!(inj.fired(), "the fault must actually have fired");
    inj.disarm();
    db.simulate_crash();
    let mut db = Database::open(&dir).unwrap();
    let r = db.execute("SELECT K FROM T").unwrap();
    assert_eq!(r.rows.len(), 2, "the retried commit is durable");
    let _ = fs::remove_dir_all(&dir);
}

/// A permanent device failure exhausts the bounded retry, the statement
/// rolls back, and the error is an I/O error — not a panic, not silent.
#[test]
fn permanent_commit_fault_rolls_back_after_bounded_retry() {
    let dir = tmp("permanent-retry");
    let inj = FaultInjector::new();
    let mut db = Database::create_with(&dir, fault_opts(Some(inj.clone()))).unwrap();
    db.execute("CREATE TABLE T (K INT)").unwrap();
    inj.arm(0, FaultKind::PermanentError);
    let err = db.execute("INSERT INTO T VALUES (1)").unwrap_err();
    assert_eq!(err.code(), bdbms_common::ErrorCode::Io, "got: {err}");
    // rolled back in memory: the table is still empty
    let r = db.execute("SELECT K FROM T");
    assert!(r.is_err() || r.unwrap().rows.is_empty());
    inj.disarm();
    let r = db.execute("SELECT K FROM T").unwrap();
    assert_eq!(r.rows.len(), 0, "the failed insert must not resurface");
    db.simulate_crash();
    let db = Database::open(&dir).unwrap();
    assert_eq!(
        database_fingerprint(&db),
        oracle_fingerprint(&["CREATE TABLE T (K INT)"]),
        "after reopen the failed insert stays gone"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn double_crash_recovery_is_idempotent() {
    // crash, reopen, crash again immediately (before any new work), and
    // reopen again: recovery must be stable under repetition
    let dir = tmp("double");
    {
        let mut db = Database::create(&dir).unwrap();
        for s in &SCRIPT[..8] {
            db.execute(s).unwrap();
        }
        db.simulate_crash();
    }
    let fp1 = {
        let db = Database::open(&dir).unwrap();
        let fp = database_fingerprint(&db);
        db.simulate_crash();
        fp
    };
    let db = Database::open(&dir).unwrap();
    assert_eq!(database_fingerprint(&db), fp1);
    // the second open had nothing to replay: the first one checkpointed
    let rec = db.last_recovery().unwrap();
    assert_eq!(rec.replayed_commits, 0);
    assert_eq!(rec.torn_bytes, 0);
    let _ = fs::remove_dir_all(&dir);
}
