//! Bulk ingestion: the engine behind `COPY <table> FROM '<path>'`.
//!
//! The paper's flagship scenario is curating annotated gene/protein
//! records at scale (§7.2) — whole FASTA dumps arriving at once, not one
//! `INSERT` at a time.  Row-at-a-time inserts pay per-row secondary-index
//! maintenance, per-row statistics upkeep, and (on durable databases) one
//! redo record per row.  `COPY` amortizes all three:
//!
//! * rows go to the heap through [`Table::bulk_append`] — no index or
//!   stats work per row;
//! * after the last row, [`Table::finish_bulk`] makes one heap pass that
//!   reloads every secondary B+-tree index bottom-up from all live rows,
//!   appends the new rows to the sequence indexes (bulk-building one
//!   that is still empty), and recomputes exact statistics (the deferred
//!   `ANALYZE`);
//! * the WAL sees nothing instead of 50k `RowInsert` frames: a durable
//!   database commits the load by writing a checkpoint image.  A crash
//!   before the image rename leaves the old image and zero copied rows,
//!   a crash after it leaves the full load, and recovery never reads the
//!   source file.  See `docs/INGEST.md` for the full contract.
//!
//! Two file formats are supported (`FORMAT FASTA | TSV`, inferred from
//! the extension when omitted):
//!
//! * **FASTA** — `>header` lines, each followed by sequence lines that
//!   are concatenated.  The header goes to the table's first column, the
//!   sequence to the second; any further columns are NULL.
//! * **TSV** — one row per line, tab-separated, values parsed against
//!   the declared column types; empty fields and `\N` are NULL.

use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::Path;

use bdbms_common::{BdbmsError, DataType, Result, Value};

use crate::ast::CopyFormat;
use crate::catalog::Table;

/// Resolve the effective format: an explicit `FORMAT` clause wins,
/// otherwise `.fa`/`.fasta` (case-insensitive) means FASTA and anything
/// else TSV.
pub(crate) fn resolve_format(path: &Path, explicit: Option<CopyFormat>) -> CopyFormat {
    if let Some(f) = explicit {
        return f;
    }
    match path.extension().and_then(|e| e.to_str()) {
        Some(ext) if ext.eq_ignore_ascii_case("fa") || ext.eq_ignore_ascii_case("fasta") => {
            CopyFormat::Fasta
        }
        _ => CopyFormat::Tsv,
    }
}

/// Load `path` into `table`, returning the number of rows appended.
///
/// On error the table may hold a partial heap-only append (indexes and
/// stats untouched); the caller owns cleanup — the `COPY` statement path
/// rolls back via its `UnBulkLoad` undo op.
pub(crate) fn bulk_load(table: &mut Table, path: &Path, format: CopyFormat) -> Result<u64> {
    let file = File::open(path)
        .map_err(|e| BdbmsError::invalid(format!("COPY cannot open `{}`: {e}", path.display())))?;
    let reader = BufReader::new(file);
    let first_row = table.peek_next_row();
    let rows = match format {
        CopyFormat::Fasta => load_fasta(table, reader)?,
        CopyFormat::Tsv => load_tsv(table, reader)?,
    };
    table.finish_bulk(first_row)?;
    Ok(rows)
}

fn load_fasta(table: &mut Table, reader: impl BufRead) -> Result<u64> {
    let arity = table.schema.arity();
    if arity < 2 {
        return Err(BdbmsError::invalid(format!(
            "FASTA COPY into `{}` needs at least 2 columns (header, sequence)",
            table.name
        )));
    }
    let mut rows = 0u64;
    let mut header: Option<String> = None;
    let mut sequence = String::new();
    for (lineno, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| BdbmsError::invalid(format!("COPY read error: {e}")))?;
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(h) = line.strip_prefix('>') {
            if let Some(hdr) = header.take() {
                append_fasta_row(table, arity, hdr, std::mem::take(&mut sequence))?;
                rows += 1;
            }
            header = Some(h.trim().to_string());
            sequence.clear();
        } else if header.is_some() {
            sequence.push_str(line.trim());
        } else {
            return Err(BdbmsError::invalid(format!(
                "FASTA line {} has sequence data before any `>` header",
                lineno + 1
            )));
        }
    }
    if let Some(hdr) = header.take() {
        append_fasta_row(table, arity, hdr, sequence)?;
        rows += 1;
    }
    Ok(rows)
}

fn append_fasta_row(
    table: &mut Table,
    arity: usize,
    header: String,
    sequence: String,
) -> Result<()> {
    let mut values = vec![Value::Null; arity];
    values[0] = Value::Text(header);
    values[1] = Value::Text(sequence);
    table.bulk_append(values).map(|_| ())
}

fn load_tsv(table: &mut Table, reader: impl BufRead) -> Result<u64> {
    let types: Vec<DataType> = table.schema.columns().iter().map(|c| c.ty).collect();
    let mut rows = 0u64;
    for (lineno, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| BdbmsError::invalid(format!("COPY read error: {e}")))?;
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split('\t').collect();
        if fields.len() != types.len() {
            return Err(BdbmsError::invalid(format!(
                "TSV line {} has {} fields, `{}` has {} columns",
                lineno + 1,
                fields.len(),
                table.name,
                types.len()
            )));
        }
        let mut values = Vec::with_capacity(types.len());
        for (field, &ty) in fields.iter().zip(&types) {
            values.push(parse_field(field, ty).map_err(|e| {
                BdbmsError::invalid(format!("TSV line {}: {}", lineno + 1, e.message()))
            })?);
        }
        table.bulk_append(values)?;
        rows += 1;
    }
    Ok(rows)
}

/// Parse one TSV field against its declared type.  Empty fields and the
/// PostgreSQL-style `\N` marker are NULL.
fn parse_field(field: &str, ty: DataType) -> Result<Value> {
    if field.is_empty() || field == "\\N" {
        return Ok(Value::Null);
    }
    Ok(match ty {
        DataType::Text => Value::Text(field.to_string()),
        DataType::Int => Value::Int(
            field
                .parse::<i64>()
                .map_err(|_| BdbmsError::invalid(format!("`{field}` is not an INT")))?,
        ),
        DataType::Float => Value::Float(
            field
                .parse::<f64>()
                .map_err(|_| BdbmsError::invalid(format!("`{field}` is not a FLOAT")))?,
        ),
        DataType::Bool => match field.to_ascii_lowercase().as_str() {
            "true" | "t" | "1" => Value::Bool(true),
            "false" | "f" | "0" => Value::Bool(false),
            _ => return Err(BdbmsError::invalid(format!("`{field}` is not a BOOL"))),
        },
        DataType::Timestamp => Value::Timestamp(
            field
                .parse::<u64>()
                .map_err(|_| BdbmsError::invalid(format!("`{field}` is not a TIMESTAMP")))?,
        ),
    })
}
