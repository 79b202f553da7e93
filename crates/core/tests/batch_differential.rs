//! Differential property suite for the executor: every randomized SELECT
//! must produce the reference interpreter's answer
//! (`support/reference.rs`: materialised tables, nested loops, the whole
//! WHERE on every joined row, annotations attached eagerly — no planner,
//! no batch operator, no index) on every engine path: the materializing
//! executor, and a prepared-statement cursor drained twice, so the second
//! run replays the cached `SelectPlan`.

mod support;

use bdbms_common::Result;
use bdbms_core::{Database, QueryResult};
use proptest::prelude::*;
use support::{arb_obs_where, arb_where, diff_db, seq_db};

/// Run one SQL string on every engine path and compare each answer with
/// the reference interpreter's.
fn assert_differential(db: &mut Database, sql: &str) {
    let expected = support::expect(db.catalog(), sql);
    expected.assert_matches("default", db.query_traced(sql).map(|(r, _)| r));
    let session = db.session("admin");
    for leg in ["cursor", "cursor (cached plan)"] {
        let drained = |sql: &str| -> Result<QueryResult> {
            let stmt = session.prepare(sql)?;
            session.query(&stmt, &[])?.into_result()
        };
        expected.assert_matches(leg, drained(sql));
    }
}

/// The projection *moves* a bare-column item's value out of the batch
/// on the column's last use in the item list.  Every shape in which a
/// column is read more than once, or read again after the projection
/// (ORDER BY, DISTINCT), or only for its annotations (PROMOTE, FILTER),
/// must still give the reference's answer — on every leg, the cursor
/// twice.  Moving on *first* use instead fails the first
/// statement here (`default: … [Text("JW0000"), Null] is not a
/// reference row`).
#[test]
fn moved_columns_are_read_before_they_are_taken() {
    let mut db = diff_db();
    for sql in [
        "SELECT GID, GID FROM Gene",
        "SELECT GID, GID || 'x' FROM Gene",
        "SELECT UPPER(GID), GID FROM Gene",
        "SELECT GID, Len, GID, Len + 1, Len FROM Gene WHERE Bucket = 3",
        "SELECT GID, GName FROM Gene ORDER BY Len DESC",
        "SELECT Len, GID FROM Gene ORDER BY Len DESC LIMIT 9",
        "SELECT DISTINCT GName FROM Gene",
        "SELECT DISTINCT GName, GName FROM Gene ANNOTATION(Curation)",
        "SELECT GID, Len FROM Gene ANNOTATION(Curation) FILTER CONTAINS 'GenoBase'",
        "SELECT GID PROMOTE (Len), Len FROM Gene ANNOTATION(Curation)",
        "SELECT Len PROMOTE (GID), GID PROMOTE (Len) FROM Gene ANNOTATION(Curation)",
        "SELECT GID FROM Gene ANNOTATION(Curation) AWHERE CONTAINS 'curated'",
        // a repeated column name across the two sides of a join
        "SELECT * FROM Tag T, Tag U WHERE T.TLen = U.TLen",
        "SELECT G.GID, T.TName, G.GID FROM Gene G, Tag T WHERE G.Len = T.TLen",
        "SELECT * FROM Gene ANNOTATION(Curation) G, Tag T WHERE G.Len = T.TLen AND G.Len < 30",
        // LIMIT cuts a batch: the tuples behind the cut are never read
        "SELECT GID, GID FROM Gene LIMIT 7",
        "SELECT G.GID, T.TName FROM Gene G, Tag T LIMIT 1500",
        // index-only tuples (NULL everywhere but the key)
        "SELECT Len, Len FROM Gene WHERE Len >= 10 AND Len < 20",
    ] {
        assert_differential(&mut db, sql);
    }
}

/// Joins carry values and row numbers only; annotation slots are created
/// after them, per source, from the joined tuple's row numbers.  Whether
/// the streaming side, the build side, or both are annotated — and
/// whichever of them the planner streams — every surviving tuple must get
/// its own rows' annotations, and a tuple whose annotated row the WHERE
/// dropped must not appear (pushed conjunct, residual conjunct, AWHERE).
#[test]
fn annotations_attach_after_joins_to_the_right_rows() {
    let mut db = diff_db();
    db.execute("CREATE ANNOTATION TABLE Origin ON Tag").unwrap();
    db.execute(
        "ADD ANNOTATION TO Tag.Origin VALUE 'imported' \
         ON (SELECT T.TName FROM Tag T WHERE TLen < 20)",
    )
    .unwrap();
    for (from, drop_annotated) in [
        // annotated ⋈ unannotated
        ("Gene ANNOTATION(Curation) G, Tag T", "G.Len < 25"),
        (
            "Gene ANNOTATION(Curation) G, Tag T",
            "G.Bucket + T.TLen > 12",
        ),
        // unannotated ⋈ annotated
        ("Gene G, Tag ANNOTATION(Origin) T", "T.TLen >= 9"),
        ("Tag ANNOTATION(Origin) T, Gene G", "T.TName LIKE 't1%'"),
        // both
        (
            "Gene ANNOTATION(Curation) G, Tag ANNOTATION(Origin) T",
            "G.Len < 45 AND T.TLen > 6",
        ),
        (
            "Tag ANNOTATION(Origin) T, Gene ANNOTATION(Curation) G",
            "G.Len % 2 = 0",
        ),
    ] {
        let join = format!("FROM {from} WHERE G.Len = T.TLen AND {drop_annotated}");
        for sql in [
            format!("SELECT G.GID, T.TName, G.Len {join}"),
            format!("SELECT * {join}"),
            format!("SELECT T.TName PROMOTE (G.GID, G.Len) {join}"),
            format!("SELECT G.GID, T.TName {join} AWHERE CONTAINS 'i'"),
            format!("SELECT G.GID, T.TName, G.Len {join} LIMIT 5"),
        ] {
            assert_differential(&mut db, &sql);
        }
    }
}

/// A projection that fails on tuple k: the materializing paths fail
/// with the reference's error code, and a cursor still hands out the k
/// rows before it — intact, although the failing statement moves `GID`
/// out of every tuple it projects.
#[test]
fn projection_error_on_a_later_row_keeps_the_rows_before_it() {
    let mut db = diff_db();
    let sql = "SELECT 100 / (Len - 5), GID FROM Gene";
    assert_differential(&mut db, sql);
    let reference = support::expect(db.catalog(), sql);
    let session = db.session("admin");
    let stmt = session.prepare(sql).unwrap();
    for run in ["first", "cached plan"] {
        let mut cursor = session.query(&stmt, &[]).unwrap();
        for k in 0..5 {
            let row = cursor.next_row().unwrap().expect("rows before the failure");
            assert_eq!(row.values[1], format!("JW{k:04}").into(), "{run}: row {k}");
        }
        let err = cursor.next_row().unwrap_err();
        reference.assert_matches(run, Err(err));
    }
}

fn arb_ann() -> impl Strategy<Value = String> {
    prop_oneof![
        Just(String::new()),
        Just(" ANNOTATION(Curation)".to_string()),
    ]
}

fn arb_tail() -> impl Strategy<Value = String> {
    prop_oneof![
        Just(String::new()),
        (1usize..40).prop_map(|k| format!(" LIMIT {k}")),
        Just(" ORDER BY Len DESC".to_string()),
        (1usize..20).prop_map(|k| format!(" ORDER BY Len DESC LIMIT {k}")),
    ]
}

fn arb_scan_items() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("GID".to_string()),
        Just("GID, Len".to_string()),
        Just("DISTINCT GName".to_string()),
        Just("Len + Bucket, GID".to_string()),
        Just("GID PROMOTE (Len)".to_string()),
    ]
}

/// A scan of `Obs` whose WHERE (from [`arb_obs_where`]) reads a subset
/// of the columns the projection, `GROUP BY` or `ORDER BY` reads, so
/// most of a row is decoded only once the row has survived it: NULLs,
/// FLOAT next to INT, multi-byte text, annotations on the deferred
/// columns, deleted rows.
fn arb_obs_scan() -> impl Strategy<Value = String> {
    let shape = prop_oneof![
        Just("SELECT Site, Memo FROM Obs{ann}{cond}"),
        Just("SELECT OId, Val, Qty FROM Obs{ann}{cond} ORDER BY OId DESC"),
        Just("SELECT * FROM Obs{ann}{cond}"),
        Just("SELECT Memo PROMOTE (Site), OId FROM Obs{ann}{cond} LIMIT 9"),
        Just("SELECT Site || Memo, Val + Qty FROM Obs{ann}{cond}"),
        Just("SELECT DISTINCT Site FROM Obs{ann}{cond}"),
        Just("SELECT Site, COUNT(*), SUM(Val), MAX(Memo) FROM Obs{ann}{cond} GROUP BY Site"),
    ];
    let ann = prop_oneof![Just(""), Just(" ANNOTATION(Audit)")];
    (shape, ann, arb_obs_where())
        .prop_map(|(shape, ann, cond)| shape.replace("{ann}", ann).replace("{cond}", &cond))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Single-table scans: projections, filters, annotations, DISTINCT,
    /// ORDER BY, LIMIT, and `Obs`'s late-decoded rows — engine ≡
    /// reference.
    #[test]
    fn scans_are_equivalent(
        sql in prop_oneof![
            (arb_scan_items(), arb_ann(), arb_where(), arb_tail()).prop_map(
                |(items, ann, cond, tail)| format!("SELECT {items} FROM Gene{ann}{cond}{tail}")
            ),
            arb_obs_scan(),
        ],
    ) {
        let mut db = diff_db();
        assert_differential(&mut db, &sql);
    }

    /// Aggregation: plain and computed aggregates, HAVING over items,
    /// keys and unlisted aggregates, AHAVING, a global HAVING over empty
    /// input, and an aggregate under a function (the same error on both
    /// sides) — engine ≡ reference.
    #[test]
    fn aggregates_are_equivalent(
        ann in arb_ann(),
        cond in arb_where(),
        shape in 0usize..11,
    ) {
        let mut db = diff_db();
        let sql = match shape {
            0 => format!(
                "SELECT COUNT(*), SUM(Len), MIN(Len), MAX(GID), AVG(Len) FROM Gene{ann}{cond}"
            ),
            1 => format!(
                "SELECT Bucket, COUNT(*), SUM(Len) FROM Gene{ann}{cond} GROUP BY Bucket"
            ),
            2 => format!(
                "SELECT GName, COUNT(*) FROM Gene{ann}{cond} GROUP BY GName HAVING COUNT(*) > 2"
            ),
            3 => format!(
                "SELECT Bucket, Bucket * 2, MIN(GID) FROM Gene{ann}{cond} \
                 GROUP BY Bucket ORDER BY Bucket"
            ),
            // AHAVING: some annotation of some row of the group satisfies
            4 => format!(
                "SELECT Bucket, COUNT(*) FROM Gene ANNOTATION(Curation){cond} \
                 GROUP BY Bucket AHAVING CONTAINS 'GenoBase'"
            ),
            5 => format!(
                "SELECT GName, MIN(Len) FROM Gene ANNOTATION(Curation){cond} \
                 GROUP BY GName HAVING COUNT(*) > 1 AHAVING CONTAINS 'curated'"
            ),
            // computed aggregates: expressions over accumulator outputs
            6 => format!(
                "SELECT SUM(Len) + 1, COUNT(*) * 2, -MIN(Len), GName || COUNT(*) \
                 FROM Gene{ann}{cond} GROUP BY GName"
            ),
            // HAVING on an aggregate the select list does not name, and
            // HAVING mixing a key with an aggregate
            7 => format!(
                "SELECT Bucket FROM Gene{ann}{cond} GROUP BY Bucket HAVING MIN(Len) % 2 = 0"
            ),
            8 => format!(
                "SELECT Bucket, SUM(Len) FROM Gene{ann}{cond} GROUP BY Bucket \
                 HAVING Bucket > 2 AND COUNT(*) > 1"
            ),
            // an aggregate under a function: the same error on both sides
            9 => format!("SELECT UPPER(MIN(GID)) FROM Gene{ann}{cond} GROUP BY Bucket"),
            // a global aggregate with HAVING over a WHERE matching nothing
            _ => format!(
                "SELECT COUNT(*) + 1, SUM(Len), MIN(GID) FROM Gene{ann} WHERE Len < 0 \
                 HAVING COUNT(*) < 1"
            ),
        };
        assert_differential(&mut db, &sql);
    }

    /// Joins (hash probe on the discovered equi-key, plus residual
    /// filters and limits) — engine ≡ reference.  The streamed side
    /// reads more columns than its conjuncts and key do, annotated or
    /// not: `Gene` past `Tag` or `Obs`, and `Obs` — NULL keys, FLOAT
    /// keys against INT ones, multi-byte text — past `Tag`.
    #[test]
    fn joins_are_equivalent(
        (items, from, key) in prop_oneof![
            Just(("G.GID, T.TName", "Gene G, Tag T", "G.Len = T.TLen")),
            Just(("G.GName, T.TName, G.GID", "Gene ANNOTATION(Curation) G, Tag T", "G.Len = T.TLen")),
            Just(("*", "Gene G, Tag T", "G.Len = T.TLen")),
            Just(("G.GID, O.Site, O.Memo", "Gene G, Obs ANNOTATION(Audit) O", "G.Bucket = O.Qty")),
            Just(("O.Site, O.Memo, T.TName", "Obs O, Tag T", "O.Qty = T.TLen")),
            Just(("O.Memo PROMOTE (O.Site), T.TName", "Obs ANNOTATION(Audit) O, Tag T", "O.Val = T.TLen")),
        ],
        extra in prop_oneof![
            Just(String::new()),
            Just(" AND G.Bucket = 2".to_string()),
            Just(" AND T.TName LIKE 't1%'".to_string()),
            (0i64..100).prop_map(|k| format!(" AND G.Len < {k}")),
            (0i64..60).prop_map(|k| format!(" AND O.Val > {k}")),
            Just(" AND O.Site IS NOT NULL".to_string()),
        ],
        tail in prop_oneof![
            Just(String::new()),
            (1usize..30).prop_map(|k| format!(" LIMIT {k}")),
        ],
    ) {
        // an extra conjunct on an alias the statement does not bind is
        // left out
        let bound = from
            .split(", ")
            .any(|t| extra.starts_with(&format!(" AND {}.", t.rsplit(' ').next().unwrap())));
        let extra = if bound { extra } else { String::new() };
        let mut db = diff_db();
        let sql = format!("SELECT {items} FROM {from} WHERE {key}{extra}{tail}");
        assert_differential(&mut db, &sql);
    }

    /// The annotation-predicate operators (AWHERE / FILTER, §3.4) —
    /// engine ≡ reference.
    #[test]
    fn annotation_predicates_are_equivalent(
        cond in arb_where(),
        shape in 0usize..3,
    ) {
        let mut db = diff_db();
        let sql = match shape {
            0 => format!(
                "SELECT GID FROM Gene ANNOTATION(Curation){cond} AWHERE CONTAINS 'curated'"
            ),
            1 => format!(
                "SELECT GID, Len FROM Gene ANNOTATION(Curation){cond} FILTER CONTAINS 'GenoBase'"
            ),
            _ => format!(
                "SELECT GID FROM Gene ANNOTATION(Curation){cond} \
                 AWHERE PATH '/Annotation' = 'from GenoBase'"
            ),
        };
        assert_differential(&mut db, &sql);
    }

    /// Exact sequence-index probes: the answered conjunct alone, with a
    /// second pushed conjunct on the same or another column, negated,
    /// as a join's build side, under a residual that reads the probed
    /// column, and with `SELECT *` / `GROUP BY` / `HAVING` / annotation
    /// propagation reading it (its values must still be decoded there) —
    /// engine ≡ reference.
    #[test]
    fn seq_probes_are_equivalent(
        pat in prop_oneof![
            "[HEC]{1,5}",
            Just("H".to_string()),
            Just("HHHHEEEE".to_string()),
            Just("X".to_string()),
            Just(String::new()),
        ],
        second in prop_oneof![
            Just(String::new()),
            Just(" AND SS LIKE '%C'".to_string()),
            "[HEC]{1,3}".prop_map(|q| format!(" AND SS CONTAINS SEQ '{q}'")),
            "[HEC]{1,3}".prop_map(|q| format!(" AND SS NOT CONTAINS SEQ '{q}'")),
            (0i64..40).prop_map(|k| format!(" AND Len > {k}")),
            (0i64..40).prop_map(|k| format!(" AND Len = {k}")),
            (0i64..6).prop_map(|k| format!(" AND Fam = {k}")),
            // type error on the first candidate any path evaluates, so no
            // LIMIT or probe can hide it from the engine
            Just(" AND SS + 1 = 2".to_string()),
        ],
        tail in prop_oneof![
            Just(String::new()),
            (1usize..30).prop_map(|k| format!(" LIMIT {k}")),
        ],
        shape in 0usize..10,
    ) {
        let mut db = seq_db();
        let hit = format!("SS CONTAINS SEQ '{pat}'{second}");
        let sql = match shape {
            0 => format!("SELECT PID FROM Prot WHERE {hit}{tail}"),
            1 => format!("SELECT * FROM Prot WHERE {hit}{tail}"),
            2 => format!("SELECT PID, SS FROM Prot ANNOTATION(Notes) WHERE {hit}{tail}"),
            3 => format!("SELECT PID PROMOTE (SS) FROM Prot ANNOTATION(Notes) WHERE {hit}{tail}"),
            4 => format!("SELECT PID FROM Prot WHERE SS NOT CONTAINS SEQ '{pat}'{second}{tail}"),
            5 => format!("SELECT COUNT(*), MIN(Len), MAX(SS) FROM Prot WHERE {hit}"),
            6 => format!("SELECT SS, COUNT(*) FROM Prot WHERE {hit} GROUP BY SS ORDER BY SS"),
            7 => format!(
                "SELECT Fam, COUNT(*) FROM Prot WHERE {hit} GROUP BY Fam \
                 HAVING MIN(SS) < 'F' ORDER BY Fam"
            ),
            // Family streams (more rows than the 5 % the probe is costed
            // at), so the probed table is the hash-join build side
            8 => format!(
                "SELECT F.FName, P.PID FROM Family F, Prot P \
                 WHERE F.FId = P.Fam AND P.{hit}{tail}"
            ),
            // the residual reads the probed column
            _ => format!(
                "SELECT F.FName, P.PID FROM Family F, Prot P \
                 WHERE F.FId = P.Fam AND P.{hit} AND P.SS > F.FName{tail}"
            ),
        };
        assert_differential(&mut db, &sql);
    }

    /// Pipelines with deliberately broken projections or predicates must
    /// fail with the reference's error code on every path.
    #[test]
    fn errors_are_equivalent(
        sql in prop_oneof![
            Just("SELECT Nope FROM Gene".to_string()),
            Just("SELECT GID FROM Gene WHERE Nope = 1".to_string()),
            Just("SELECT GID + 1 FROM Gene".to_string()),
            Just("SELECT GID FROM Gene WHERE Len LIKE '[' ".to_string()),
            Just("SELECT SUM(GID || 'x') FROM Gene".to_string()),
            (0i64..300).prop_map(|k| format!("SELECT GID, GID + 1 FROM Gene WHERE Len = {k}")),
            // fails on the rows where `Qty` is 4 only, on every path
            (0i64..10).prop_map(|k| format!(
                "SELECT Site, Memo FROM Obs WHERE Qty = {k} AND 100 / (Qty - 4) > 1"
            )),
            Just("SELECT Memo FROM Obs WHERE 100 / (Qty - 4) > 10 AND Site IS NOT NULL".to_string()),
            (0i64..10).prop_map(|k| format!(
                "SELECT O.Memo, T.TName FROM Obs O, Tag T \
                 WHERE O.Qty = T.TLen AND O.Qty >= {k} AND 10 / (T.TLen - 4) > 0"
            )),
        ],
    ) {
        let mut db = diff_db();
        assert_differential(&mut db, &sql);
    }
}
