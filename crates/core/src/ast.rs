//! Abstract syntax for SQL and the paper's A-SQL extension.
//!
//! The A-SQL grammar is taken directly from the paper's figures:
//! Figure 4 (`CREATE/DROP ANNOTATION TABLE`), Figure 6 (`ADD / ARCHIVE /
//! RESTORE ANNOTATION`), Figure 7 (extended `SELECT` with `ANNOTATION`,
//! `PROMOTE`, `AWHERE`, `AHAVING`, `FILTER`), and Figure 11
//! (`START/STOP CONTENT APPROVAL`).  A handful of commands the paper
//! describes in prose but gives no syntax for (approval decisions,
//! dependency rules, outdated inspection) are defined here and documented
//! as extensions in DESIGN.md.

use bdbms_common::{DataType, Value};

/// A scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Literal constant.
    Literal(Value),
    /// Prepared-statement parameter placeholder (`?` or `$n`), stored as
    /// a 0-based slot index.  Bound to a literal before execution; an
    /// unbound parameter reaching evaluation is a
    /// [`bdbms_common::ErrorCode::ParamMismatch`] error.
    Param(usize),
    /// Column reference, optionally qualified (`G.GSequence`).
    Column(Option<String>, String),
    /// Unary operators.
    Unary(UnaryOp, Box<Expr>),
    /// Binary operators.
    Binary(Box<Expr>, BinaryOp, Box<Expr>),
    /// `expr IS [NOT] NULL`.
    IsNull(Box<Expr>, bool),
    /// `expr [NOT] LIKE 'pattern'` (SQL `%`/`_` wildcards).
    Like(Box<Expr>, String, bool),
    /// `expr [NOT] CONTAINS SEQ 'pattern'` — exact substring match over a
    /// sequence column.  The pattern is a parse-time literal (never a
    /// parameter) so plans stay value-independent; the planner routes the
    /// positive form through a sequence index when one covers the column.
    ContainsSeq(Box<Expr>, String, bool),
    /// `expr [NOT] IN (v1, v2, ...)`.
    InList(Box<Expr>, Vec<Expr>, bool),
    /// Scalar function call (`LENGTH`, `UPPER`, `LOWER`, `ABS`, `SUBSTR`).
    Call(String, Vec<Expr>),
    /// Aggregate call inside SELECT/HAVING (`COUNT(*)` = `Count` + `None`).
    Aggregate(AggFunc, Option<Box<Expr>>),
}

impl std::fmt::Display for Expr {
    /// SQL-ish rendering used by `EXPLAIN` plan trees and the slow-query
    /// log.  Binary expressions are fully parenthesized rather than
    /// precedence-aware — unambiguous output matters more than pretty
    /// output, and the text is never re-parsed.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Expr::Literal(Value::Text(s)) => write!(f, "'{s}'"),
            Expr::Literal(v) => write!(f, "{v}"),
            Expr::Param(i) => write!(f, "${}", i + 1),
            Expr::Column(Some(q), c) => write!(f, "{q}.{c}"),
            Expr::Column(None, c) => f.write_str(c),
            Expr::Unary(UnaryOp::Not, e) => write!(f, "NOT ({e})"),
            Expr::Unary(UnaryOp::Neg, e) => write!(f, "-({e})"),
            Expr::Binary(l, op, r) => write!(f, "({l} {op} {r})"),
            Expr::IsNull(e, false) => write!(f, "{e} IS NULL"),
            Expr::IsNull(e, true) => write!(f, "{e} IS NOT NULL"),
            Expr::Like(e, p, false) => write!(f, "{e} LIKE '{p}'"),
            Expr::Like(e, p, true) => write!(f, "{e} NOT LIKE '{p}'"),
            Expr::ContainsSeq(e, p, false) => write!(f, "{e} CONTAINS SEQ '{p}'"),
            Expr::ContainsSeq(e, p, true) => write!(f, "{e} NOT CONTAINS SEQ '{p}'"),
            Expr::InList(e, list, neg) => {
                write!(f, "{e} {}IN (", if *neg { "NOT " } else { "" })?;
                for (i, item) in list.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str(")")
            }
            Expr::Call(name, args) => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{a}")?;
                }
                f.write_str(")")
            }
            Expr::Aggregate(func, arg) => match arg {
                Some(a) => write!(f, "{func}({a})"),
                None => write!(f, "{func}(*)"),
            },
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// Logical negation.
    Not,
    /// Arithmetic negation.
    Neg,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    /// Comparison operators.
    Eq,
    /// `<>` / `!=`.
    Ne,
    /// `<`.
    Lt,
    /// `<=`.
    Le,
    /// `>`.
    Gt,
    /// `>=`.
    Ge,
    /// Logical.
    And,
    /// Logical.
    Or,
    /// Arithmetic.
    Add,
    /// Arithmetic.
    Sub,
    /// Arithmetic.
    Mul,
    /// Arithmetic.
    Div,
    /// Arithmetic remainder.
    Mod,
    /// String concatenation (`||`).
    Concat,
}

impl std::fmt::Display for BinaryOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            BinaryOp::Eq => "=",
            BinaryOp::Ne => "<>",
            BinaryOp::Lt => "<",
            BinaryOp::Le => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::Ge => ">=",
            BinaryOp::And => "AND",
            BinaryOp::Or => "OR",
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
            BinaryOp::Mod => "%",
            BinaryOp::Concat => "||",
        };
        f.write_str(s)
    }
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT(expr)` / `COUNT(*)`.
    Count,
    /// `SUM`.
    Sum,
    /// `AVG`.
    Avg,
    /// `MIN`.
    Min,
    /// `MAX`.
    Max,
}

impl std::fmt::Display for AggFunc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
        };
        f.write_str(s)
    }
}

/// One item in a SELECT projection list.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectItem {
    /// The projected expression (`*` is expanded by the planner).
    pub expr: Expr,
    /// `AS alias`.
    pub alias: Option<String>,
    /// `PROMOTE (Cj, Ck, …)`: copy annotations from these columns onto
    /// this projected column (Figure 7).
    pub promote: Vec<(Option<String>, String)>,
}

/// Wildcard marker used before expansion.
#[derive(Debug, Clone, PartialEq)]
pub enum Projection {
    /// `SELECT *` (optionally `alias.*`).
    Star(Option<String>),
    /// Explicit item list.
    Items(Vec<SelectItem>),
}

/// A table reference in FROM.
#[derive(Debug, Clone, PartialEq)]
pub struct TableRef {
    /// Table name.
    pub table: String,
    /// Optional alias.
    pub alias: Option<String>,
    /// `ANNOTATION(S1, S2, …)` — which annotation tables to propagate
    /// from this relation (Figure 7).  Empty = no annotation propagation.
    pub annotations: Vec<String>,
}

/// Annotation predicates for AWHERE / AHAVING / FILTER.
#[derive(Debug, Clone, PartialEq)]
pub enum AnnExpr {
    /// Annotation body (full text) contains the substring.
    Contains(String),
    /// Annotation came from the named annotation table (category check).
    FromTable(String),
    /// XML path comparison: `PATH '/Annotation/source' = 'RegulonDB'`.
    PathEq(String, String),
    /// Annotation timestamp strictly before `t`.
    Before(u64),
    /// Annotation timestamp at or after `t`.
    After(u64),
    /// Conjunction.
    And(Box<AnnExpr>, Box<AnnExpr>),
    /// Disjunction.
    Or(Box<AnnExpr>, Box<AnnExpr>),
    /// Negation.
    Not(Box<AnnExpr>),
}

/// The extended SELECT of Figure 7.
#[derive(Debug, Clone, PartialEq)]
pub struct Select {
    /// `DISTINCT`?
    pub distinct: bool,
    /// Projection list.
    pub projection: Projection,
    /// FROM tables (comma = cross product constrained by WHERE).
    pub from: Vec<TableRef>,
    /// Data predicate.
    pub where_clause: Option<Expr>,
    /// Annotation predicate over input tuples (Figure 7: AWHERE).
    pub awhere: Option<AnnExpr>,
    /// Grouping columns.
    pub group_by: Vec<(Option<String>, String)>,
    /// Post-grouping data predicate.
    pub having: Option<Expr>,
    /// Post-grouping annotation predicate (Figure 7: AHAVING).
    pub ahaving: Option<AnnExpr>,
    /// Annotation filter: keeps tuples, drops non-matching annotations
    /// (Figure 7: FILTER).
    pub filter: Option<AnnExpr>,
    /// `ORDER BY col [DESC]` (extension for deterministic output).
    pub order_by: Vec<((Option<String>, String), bool)>,
    /// `LIMIT n` — cap the final output at `n` rows.  Without ORDER BY
    /// the kept subset follows pipeline order (standard SQL leaves it
    /// unspecified), and the executor pushes the limit into the pipeline
    /// for early termination when no blocking operator intervenes.
    pub limit: Option<u64>,
    /// Trailing set operation, e.g. `… INTERSECT SELECT …`.
    pub set_op: Option<(SetOp, Box<Select>)>,
}

/// Set operations with annotation-union semantics (§3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetOp {
    /// Bag-union then duplicate elimination, annotations unioned.
    Union,
    /// Tuples in both inputs, annotations unioned from both (the paper's
    /// gene-table example).
    Intersect,
    /// Tuples in the left only; left annotations kept.
    Except,
}

/// Target of an `ADD ANNOTATION … ON (…)` statement.
#[derive(Debug, Clone, PartialEq)]
pub enum AnnTarget {
    /// Annotate the output cells of a SELECT.
    Select(Box<Select>),
    /// Insert-and-annotate (§3.2: link annotations to operations).
    Insert(Box<Statement>),
    /// Update-and-annotate.
    Update(Box<Statement>),
    /// Delete-and-annotate: deleted tuples go to the table's deletion log
    /// together with the annotation.
    Delete(Box<Statement>),
}

/// A parsed statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `CREATE TABLE name (col type, …)`.
    CreateTable {
        /// Table name.
        name: String,
        /// Column definitions.
        columns: Vec<(String, DataType)>,
    },
    /// `DROP TABLE name`.
    DropTable {
        /// Table name.
        name: String,
    },
    /// `CREATE INDEX name ON table (column)` — a secondary B+-tree index
    /// the executor routes equality/range predicates through.
    CreateIndex {
        /// Index name.
        name: String,
        /// Indexed table.
        table: String,
        /// Indexed column.
        column: String,
    },
    /// `DROP INDEX name ON table`.
    DropIndex {
        /// Index name.
        name: String,
        /// Indexed table.
        table: String,
    },
    /// `CREATE SEQUENCE INDEX name ON table (column) [USING SBC|SUFFIX]` —
    /// a substring-search index over a TEXT sequence column, backed by the
    /// paper's SBC-tree (RLE-compressed suffixes, the default) or by an
    /// uncompressed String B-tree baseline.
    CreateSequenceIndex {
        /// Index name.
        name: String,
        /// Indexed table.
        table: String,
        /// Indexed column.
        column: String,
        /// Backing structure.
        kind: SeqIndexKind,
    },
    /// `DROP SEQUENCE INDEX name ON table`.
    DropSequenceIndex {
        /// Index name.
        name: String,
        /// Indexed table.
        table: String,
    },
    /// `COPY table FROM 'path' [FORMAT FASTA|TSV]` — bulk load from a file
    /// through the deferred-index ingest engine, committed by checkpoint
    /// (`crate::ingest`; docs/INGEST.md).
    Copy {
        /// Target table.
        table: String,
        /// Source file path (server-side for remote connections).
        path: String,
        /// Input format; `None` = infer from the file extension
        /// (`.fa`/`.fasta` → FASTA, everything else → TSV).
        format: Option<CopyFormat>,
    },
    /// `CREATE ANNOTATION TABLE ann ON tbl [SCHEME CELL|RECTANGLE]`
    /// (Figure 4; SCHEME is our ablation extension, default RECTANGLE).
    CreateAnnotationTable {
        /// Annotation table (category) name.
        name: String,
        /// User table it attaches to.
        on: String,
        /// `true` = per-cell scheme (Figure 3), `false` = compact
        /// rectangle scheme (Figure 5).
        cell_scheme: bool,
    },
    /// `DROP ANNOTATION TABLE ann ON tbl` (Figure 4).
    DropAnnotationTable {
        /// Annotation table name.
        name: String,
        /// User table.
        on: String,
    },
    /// `ADD ANNOTATION TO t.a[, t.b] VALUE 'body' ON (…)` (Figure 6a).
    AddAnnotation {
        /// `(user_table, annotation_table)` pairs receiving the annotation.
        to: Vec<(String, String)>,
        /// Annotation body (XML or free text).
        value: String,
        /// What to annotate.
        on: AnnTarget,
    },
    /// `ARCHIVE ANNOTATION FROM t.a[,…] [BETWEEN t1 AND t2] ON (SELECT …)`
    /// (Figure 6b).
    ArchiveAnnotation {
        /// Annotation tables to archive from.
        from: Vec<(String, String)>,
        /// Optional timestamp window.
        between: Option<(u64, u64)>,
        /// Cells whose annotations are archived.
        on: Select,
    },
    /// `RESTORE ANNOTATION …` (Figure 6c).
    RestoreAnnotation {
        /// Annotation tables to restore into.
        from: Vec<(String, String)>,
        /// Optional timestamp window.
        between: Option<(u64, u64)>,
        /// Cells whose annotations are restored.
        on: Select,
    },
    /// A (possibly compound) SELECT.
    Select(Select),
    /// `INSERT INTO t VALUES (…), (…)`.
    Insert {
        /// Target table.
        table: String,
        /// Row literals.
        rows: Vec<Vec<Expr>>,
    },
    /// `UPDATE t SET c = e, … [WHERE …]`.
    Update {
        /// Target table.
        table: String,
        /// Assignments.
        sets: Vec<(String, Expr)>,
        /// Row predicate.
        where_clause: Option<Expr>,
    },
    /// `DELETE FROM t [WHERE …]`.
    Delete {
        /// Target table.
        table: String,
        /// Row predicate.
        where_clause: Option<Expr>,
    },
    /// `CREATE USER name [IN GROUP g]`.
    CreateUser {
        /// User name.
        name: String,
        /// Optional group memberships.
        groups: Vec<String>,
    },
    /// `GRANT priv[, …] ON t TO user` (§6: the classic model bdbms keeps).
    Grant {
        /// Privileges.
        privileges: Vec<Privilege>,
        /// Table.
        table: String,
        /// Grantee (user or group).
        to: String,
    },
    /// `REVOKE priv[, …] ON t FROM user`.
    Revoke {
        /// Privileges.
        privileges: Vec<Privilege>,
        /// Table.
        table: String,
        /// Target.
        from: String,
    },
    /// `START CONTENT APPROVAL ON t [COLUMNS c,…] APPROVED BY u` (Fig 11).
    StartContentApproval {
        /// Monitored table.
        table: String,
        /// Monitored columns (empty = all).
        columns: Vec<String>,
        /// Approver (user or group).
        approved_by: String,
    },
    /// `STOP CONTENT APPROVAL ON t [COLUMNS c,…]` (Figure 11).
    StopContentApproval {
        /// Table.
        table: String,
        /// Columns (empty = all).
        columns: Vec<String>,
    },
    /// `APPROVE OPERATION n` (extension: the paper describes the decision
    /// but gives no syntax).
    ApproveOperation {
        /// Pending operation id.
        id: u64,
    },
    /// `DISAPPROVE OPERATION n` — executes the stored inverse statement.
    DisapproveOperation {
        /// Pending operation id.
        id: u64,
    },
    /// `SHOW PENDING OPERATIONS [ON t]` (extension).
    ShowPending {
        /// Optional table filter.
        table: Option<String>,
    },
    /// `CREATE DEPENDENCY RULE name FROM t.c[, t.c2] TO t2.c3 VIA
    /// PROCEDURE 'p' [EXECUTABLE] [INVERTIBLE] [LINK t.k = t2.k2]`
    /// (§5 Procedural Dependencies; syntax is our extension).
    CreateDependencyRule {
        /// Rule name.
        name: String,
        /// Source columns (single table).
        from: Vec<(String, String)>,
        /// Target column.
        to: (String, String),
        /// Procedure name.
        procedure: String,
        /// Can the DBMS run the procedure (§5: executable)?
        executable: bool,
        /// Is the procedure invertible (§5)?
        invertible: bool,
        /// Row linkage `src_col = dst_col`; `None` = same row.
        link: Option<(String, String)>,
    },
    /// `DROP DEPENDENCY RULE name`.
    DropDependencyRule {
        /// Rule name.
        name: String,
    },
    /// `SHOW OUTDATED [ON t]` — report outdated cells (§5).
    ShowOutdated {
        /// Optional table filter.
        table: Option<String>,
    },
    /// `CHECK [TABLE t]` — online integrity verification: page
    /// checksums of the durable image, B+-tree key order, index↔heap
    /// agreement, annotation-attachment and outdated-bitmap
    /// cross-checks, and WAL chain continuity.  Read-only; reports
    /// problems instead of failing on the first one.
    Check {
        /// Optional table filter (storage-wide legs still run).
        table: Option<String>,
    },
    /// `ANALYZE t` — rebuild the table's planner statistics (row count,
    /// per-column min/max, NULL counts, distinct-value estimates) from a
    /// full scan.  Stats are otherwise maintained incrementally by DML.
    Analyze {
        /// Table to re-analyze.
        table: String,
    },
    /// `VALIDATE t [WHERE …]` — revalidate outdated cells (§5:
    /// "Validating outdated data").
    Validate {
        /// Table.
        table: String,
        /// Which columns to revalidate (empty = all).
        columns: Vec<String>,
        /// Row predicate.
        where_clause: Option<Expr>,
    },
    /// `EXPLAIN [ANALYZE] <statement>` — render the plan the executor
    /// would choose (access paths with estimated rows, join order,
    /// pushed conjuncts, LIMIT pushdown) as a one-column result.  With
    /// `ANALYZE` the statement is *executed* through the instrumented
    /// batch pipeline and each node is annotated with actual rows,
    /// batches, and wall time (docs/OBSERVABILITY.md).  Only SELECT
    /// statements are explainable.
    Explain {
        /// Execute and report actuals?
        analyze: bool,
        /// The explained statement.
        stmt: Box<Statement>,
    },
    /// `SHOW SLOW QUERIES` — dump the engine's slow-query ring buffer
    /// (statements whose wall time exceeded the configured threshold).
    ShowSlowQueries,
    /// `BEGIN [TRANSACTION | WORK]` — open an explicit transaction.
    /// Until `COMMIT`/`ROLLBACK`, every statement's effects are recorded
    /// in the session's transaction log (see `crate::txn`).
    Begin,
    /// `COMMIT [TRANSACTION | WORK]` — make the open transaction's
    /// effects permanent and discard its transaction log.
    Commit,
    /// `ROLLBACK [TRANSACTION | WORK]` — undo everything since `BEGIN`.
    Rollback,
    /// `SAVEPOINT name` — mark a rollback point inside the open
    /// transaction.  Names may shadow earlier savepoints.
    Savepoint {
        /// Savepoint name.
        name: String,
    },
    /// `ROLLBACK TO [SAVEPOINT] name` — undo back to the savepoint,
    /// keeping the transaction (and the savepoint itself) open.
    RollbackTo {
        /// Savepoint name.
        name: String,
    },
    /// `RELEASE [SAVEPOINT] name` — forget the savepoint (and any
    /// savepoints created after it) without undoing anything.
    Release {
        /// Savepoint name.
        name: String,
    },
}

/// Backing structure for a sequence index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeqIndexKind {
    /// RLE-compressed SBC-tree (the paper's §7.2 structure; default).
    Sbc,
    /// Uncompressed String B-tree baseline.
    Suffix,
}

impl SeqIndexKind {
    /// Keyword used in SQL (`USING SBC` / `USING SUFFIX`).
    pub fn as_str(&self) -> &'static str {
        match self {
            SeqIndexKind::Sbc => "SBC",
            SeqIndexKind::Suffix => "SUFFIX",
        }
    }
}

/// Input format of a `COPY` statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CopyFormat {
    /// `>header` lines followed by sequence lines; loads two TEXT columns
    /// (header, sequence).
    Fasta,
    /// Tab-separated positional columns coerced to the table schema.
    Tsv,
}

impl CopyFormat {
    /// Keyword used in SQL (`FORMAT FASTA` / `FORMAT TSV`).
    pub fn as_str(&self) -> &'static str {
        match self {
            CopyFormat::Fasta => "FASTA",
            CopyFormat::Tsv => "TSV",
        }
    }
}

/// Table privileges of the GRANT/REVOKE model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Privilege {
    /// Read rows.
    Select,
    /// Insert rows.
    Insert,
    /// Update cells.
    Update,
    /// Delete rows.
    Delete,
    /// Insert/maintain provenance annotations (§4: provenance writes are
    /// restricted to integration tools).
    Provenance,
}

impl Privilege {
    /// Parse a privilege keyword.
    pub fn parse(s: &str) -> Option<Privilege> {
        match s.to_ascii_uppercase().as_str() {
            "SELECT" => Some(Privilege::Select),
            "INSERT" => Some(Privilege::Insert),
            "UPDATE" => Some(Privilege::Update),
            "DELETE" => Some(Privilege::Delete),
            "PROVENANCE" => Some(Privilege::Provenance),
            _ => None,
        }
    }
}

impl std::fmt::Display for Privilege {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Privilege::Select => "SELECT",
            Privilege::Insert => "INSERT",
            Privilege::Update => "UPDATE",
            Privilege::Delete => "DELETE",
            Privilege::Provenance => "PROVENANCE",
        };
        f.write_str(s)
    }
}
