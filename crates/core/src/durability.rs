//! The durability subsystem: logical redo logging, checkpoint images,
//! and crash recovery (`Database::open(path)` / `Database::create(path)`).
//!
//! ## Architecture
//!
//! A durable database is a directory:
//!
//! ```text
//! mydb.bdbms/
//!   data.bdb        checkpoint image: a FileStore page file
//!   wal/wal-*.log   write-ahead log segments (bdbms_storage::wal)
//! ```
//!
//! **`data.bdb`** holds the last checkpoint: page 0 is a header (magic +
//! format version + the record id of the metadata blob + CRC), each
//! table's rows live in their own heap-file pages (the existing
//! slotted-page/overflow-chain machinery), and one metadata record holds
//! each table's physical parts — its name, row allocator, page list, rid
//! map and outdated bitmap — plus the logical clock, the WAL frontier
//! and the list of *sections*.  A section is derived state stored in
//! pages of its own beside its table's heap, listed by owner table,
//! kind, name, pages, byte length and CRC-32: each sequence index's
//! suffix order, and each user table's planner statistics.  An open
//! uses a section of a kind it knows, skips one of a kind it does not,
//! and rebuilds from the heap what has no section.  Everything else is
//! rows of hidden tables (`crate::catalog`), copied with every other
//! heap: the definitions of tables, indexes, sequence indexes and
//! annotation sets (`$schema`; the other derived payloads are rebuilt on
//! open), the curator's history — annotation records and attachments,
//! deletion logs, approval logs — and the catalog's users, grants,
//! approval configs and dependency rules.
//!
//! **The WAL** holds logical redo records for every transaction committed
//! since that checkpoint: row inserts, updates and deletes, outdated
//! marks and clears, and commits.  DDL is a row record on `$schema`,
//! whose replay puts the definition into effect (`Database::define`).
//! While a transaction runs, each record sits in the transaction log
//! (`crate::txn`) next to its change's inverse, so a `ROLLBACK` (or a
//! failed statement, or `ROLLBACK TO SAVEPOINT`) drops both halves at
//! once; the surviving records are appended + flushed at commit,
//! *before* the commit is acknowledged.  Under
//! [`Durability::Full`] the flush fsyncs; under [`Durability::NoSync`] it
//! only reaches the OS.  Rollback applies the inverses through
//! `Database::apply_wal_record`, the path replay takes.
//!
//! **WAL-before-data**: the buffer pool backing a durable database runs
//! in no-steal mode (`pin_dirty`) — dirty data pages are never written
//! outside a checkpoint — *and* carries the page-LSN flush gate, so even
//! a steal-mode write would flush the log first.  Between checkpoints the
//! on-disk image therefore stays exactly the last checkpoint.
//!
//! **Checkpoint** writes a complete fresh image to `data.bdb.tmp`
//! (shadow-style: new heaps, new metadata, new header), fsyncs, atomically
//! renames over `data.bdb`, swaps the live engine onto the new pages, and
//! truncates the WAL.  Rows move as record bytes, undecoded.  A crash at
//! any instant leaves either the old image + old WAL or the new image +
//! empty WAL — both consistent.
//!
//! **`COPY` commits by checkpoint**: it logs nothing, and its implicit
//! transaction runs a checkpoint before it commits.  The image rename is
//! the commit point: a checkpoint that fails leaves the old image and WAL
//! in place and rolls the load back, so recovery never reads anything
//! outside the database directory.
//!
//! **Recovery** (`Database::open`) loads the image — the catalog tables
//! first, then each user table with its hidden tables as `$schema`
//! defines them — rebuilding indexes from the heaps in one pass per
//! table, which checks that every value decodes (a sequence index is
//! loaded in its stored order, not sorted, and a user table takes its
//! stored statistics), then replays
//! the WAL: records are buffered per
//! transaction and applied only when a `Commit` record is reached —
//! ARIES-lite redo with committed records replayed and the uncommitted
//! tail discarded.  Torn frames (bad CRC / short write) at the log's tail
//! are truncated by the WAL layer; damage *behind* durable data surfaces
//! as [`ErrorCode::Corrupt`].  An open that found any WAL frame ends with
//! a checkpoint, so the WAL is empty and the image fresh; an open that
//! found none writes nothing and runs on the image's own pages.
//!
//! **Salvage** (`Database::open_salvage`) runs the same recovery path
//! with a different error policy: a table whose heap fails the load's
//! one pass, or whose definitions and metadata entries disagree, is
//! quarantined, sections are not read (each sequence index is rebuilt
//! from its heap, and each user table's statistics are computed from
//! it), an unreadable image or WAL chain is dropped, a WAL
//! record that does not decode or apply is counted and skipped, and the
//! survivors are always re-checkpointed.  Only damage drops an
//! image: one of another format version is refused (`Invalid`) and left
//! alone, by salvage as by `open`.
//!
//! See `docs/STORAGE.md` for the byte-level formats.

use std::collections::BTreeMap;
use std::fs::{self, File};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bdbms_common::bitmap::CellBitmap;
use bdbms_common::codec::{self, Cur};
use bdbms_common::metrics::Counter;
use bdbms_common::{BdbmsError, ErrorCode, Result, Value};
use bdbms_storage::wal::{GroupCommitter, SharedWal, Wal, WalScan};
use bdbms_storage::{
    crc32, BufferPool, Crc32, FaultInjector, FaultStore, FileStore, FlushGate, HeapFile,
    IoDecision, MemStore, PageId, PageStore, Rid, PAGE_BODY,
};

pub use bdbms_storage::wal::{CommitTicket, Durability};

use crate::auth::ADMIN;
use crate::catalog::{
    on_table, owner_of, Definition, History, Kind, Table, TableParts, SCHEMA_TABLE,
};
use crate::database::Database;
use crate::stats::TableStats;

/// Data file name inside a database directory.
pub(crate) const DATA_FILE: &str = "data.bdb";
/// Temporary checkpoint image (renamed over [`DATA_FILE`] when complete).
const DATA_TMP: &str = "data.bdb.tmp";
/// WAL directory name inside a database directory.
pub(crate) const WAL_DIR: &str = "wal";

const HEADER_MAGIC: &[u8; 8] = b"BDBMSDB1";
// v2: per-table sequence-index definitions appended to the snapshot
// v3: the history is hidden tables; the snapshot keeps set definitions,
//     approval configs and the operation-id floor (v2 is refused, not read)
// v4: users, grants, approval configs, the operation-id floor and the
//     dependency rules are catalog tables (v3 is refused, not read)
// v5: table, index, sequence-index and annotation-set definitions are
//     rows of `$schema`; the snapshot keeps each table's physical parts
//     (v4 is refused, not read)
// v6: each sequence index's suffix order is stored in pages of its own,
//     named per table in the snapshot (v5 is refused, not read)
// v7: the snapshot lists sections (orders, planner statistics) instead
//     of naming orders per table (v6 is refused, not read)
const FORMAT_VERSION: u32 = 7;

/// Section kind: a sequence index's suffix order, one little-endian
/// `u32` per suffix; the section is named after the index.
const ORDER: u8 = 1;
/// Section kind: a user table's planner statistics
/// (`TableStats::encode`); the section's name is empty.
const STATS: u8 = 2;
// an order's numbers never straddle two pages
const _: () = assert!(PAGE_BODY.is_multiple_of(4));

/// Derived state stored in pages of its own, as the metadata record
/// lists it.  Open uses a section of a kind it knows, after checking
/// its CRC-32 and shape, and skips one of a kind it does not, so adding
/// or retiring a kind changes no format.
struct Section {
    /// The table the section belongs to.
    table: String,
    kind: u8,
    name: String,
    pages: Vec<PageId>,
    len: usize,
    crc: u32,
}

impl Section {
    /// Serialize the section's entry in the metadata record.
    fn encode(&self, out: &mut Vec<u8>) {
        codec::put_str(out, &self.table);
        codec::put_u8(out, self.kind);
        codec::put_str(out, &self.name);
        codec::put_u64s(out, &self.pages.iter().map(|p| p.0).collect::<Vec<u64>>());
        codec::put_u64(out, self.len as u64);
        codec::put_u32(out, self.crc);
    }

    /// Decode one entry written by [`encode`](Self::encode).
    fn decode(cur: &mut Cur<'_>) -> Result<Section> {
        Ok(Section {
            table: cur.str()?,
            kind: cur.u8()?,
            name: cur.str()?,
            pages: cur.u64s()?.into_iter().map(PageId).collect(),
            len: cur.u64()? as usize,
            crc: cur.u32()?,
        })
    }
}

/// A table's rows, moved onto a checkpoint's new image.
type Moved = (String, HeapFile, BTreeMap<u64, Rid>);

// ---------------------------------------------------------------------
// The logical redo vocabulary
// ---------------------------------------------------------------------

/// One logical redo operation.  The WAL for a committed transaction is
/// its surviving operations in execution order, terminated by
/// [`WalRecord::Commit`]; recovery replays them through the same engine
/// methods that produced them, so derived state (index entries, outdated
/// clears inside `delete`, schema coercion) re-derives identically.
#[derive(Debug, Clone)]
pub(crate) enum WalRecord {
    /// A row inserted (schema-coerced values, original row number).
    RowInsert {
        table: String,
        row_no: u64,
        values: Vec<Value>,
    },
    /// A row overwritten in place.
    RowUpdate {
        table: String,
        row_no: u64,
        values: Vec<Value>,
    },
    /// A row deleted.
    RowDelete { table: String, row_no: u64 },
    /// A cell marked outdated (§5 cascade).
    OutdatedMark {
        table: String,
        row_no: u64,
        col: u64,
    },
    /// A cell revalidated.
    OutdatedClear {
        table: String,
        row_no: u64,
        col: u64,
    },
    /// Transaction commit barrier; carries the logical clock.
    Commit { clock: u64 },
}

impl WalRecord {
    /// Serialize into `out` (tag byte + fields).
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        match self {
            WalRecord::RowInsert {
                table,
                row_no,
                values,
            } => {
                codec::put_u8(out, 1);
                codec::put_str(out, table);
                codec::put_u64(out, *row_no);
                codec::put_values(out, values);
            }
            WalRecord::RowUpdate {
                table,
                row_no,
                values,
            } => {
                codec::put_u8(out, 2);
                codec::put_str(out, table);
                codec::put_u64(out, *row_no);
                codec::put_values(out, values);
            }
            WalRecord::RowDelete { table, row_no } => {
                codec::put_u8(out, 3);
                codec::put_str(out, table);
                codec::put_u64(out, *row_no);
            }
            WalRecord::OutdatedMark { table, row_no, col } => {
                codec::put_u8(out, 4);
                codec::put_str(out, table);
                codec::put_u64(out, *row_no);
                codec::put_u64(out, *col);
            }
            WalRecord::OutdatedClear { table, row_no, col } => {
                codec::put_u8(out, 5);
                codec::put_str(out, table);
                codec::put_u64(out, *row_no);
                codec::put_u64(out, *col);
            }
            WalRecord::Commit { clock } => {
                codec::put_u8(out, 24);
                codec::put_u64(out, *clock);
            }
        }
    }

    /// Decode one record from a WAL frame payload.
    pub(crate) fn decode(buf: &[u8]) -> Result<WalRecord> {
        let mut cur = Cur::new(buf);
        let rec = match cur.u8()? {
            1 => WalRecord::RowInsert {
                table: cur.str()?,
                row_no: cur.u64()?,
                values: cur.values()?,
            },
            2 => WalRecord::RowUpdate {
                table: cur.str()?,
                row_no: cur.u64()?,
                values: cur.values()?,
            },
            3 => WalRecord::RowDelete {
                table: cur.str()?,
                row_no: cur.u64()?,
            },
            4 => WalRecord::OutdatedMark {
                table: cur.str()?,
                row_no: cur.u64()?,
                col: cur.u64()?,
            },
            5 => WalRecord::OutdatedClear {
                table: cur.str()?,
                row_no: cur.u64()?,
                col: cur.u64()?,
            },
            24 => WalRecord::Commit { clock: cur.u64()? },
            // 6, 13, 14, 20, 21 were the history records (deletion log,
            // annotation add/archive, approval log/decision), 15–19, 22
            // and 23 the user, grant, approval-config and rule records,
            // 25 `COPY`'s bulk load, and 7–12, 26 and 27 the table,
            // index, annotation-set and sequence-index DDL: they stay
            // unassigned, so an old log holding one fails to decode
            // instead of misreading
            t => return Err(BdbmsError::corrupt(format!("unknown WAL record tag {t}"))),
        };
        Ok(rec)
    }
}

// ---------------------------------------------------------------------
// Options, reports, handles
// ---------------------------------------------------------------------

/// Tuning knobs for a durable database.
#[derive(Debug, Clone)]
pub struct DurabilityOptions {
    /// Fsync policy at commit ([`Durability::Full`] by default).
    pub durability: Durability,
    /// Checkpoint automatically after this many committed transactions.
    pub checkpoint_every_commits: u64,
    /// WAL segment rotation threshold in bytes.
    pub wal_segment_bytes: u64,
    /// Buffer-pool capacity in pages.
    pub pool_pages: usize,
    /// Deterministic fault injection over the write paths (page writes,
    /// fsyncs, WAL flushes, the checkpoint rename).  `None` in
    /// production; the crash-recovery harness arms it.
    pub fault_injector: Option<Arc<FaultInjector>>,
}

impl Default for DurabilityOptions {
    fn default() -> Self {
        DurabilityOptions {
            durability: Durability::Full,
            checkpoint_every_commits: 1024,
            wal_segment_bytes: bdbms_storage::wal::DEFAULT_SEGMENT_BYTES,
            pool_pages: 1024,
            fault_injector: None,
        }
    }
}

impl DurabilityOptions {
    /// Default options with [`Durability::NoSync`] (bulk loads, benches).
    pub fn no_sync() -> Self {
        DurabilityOptions {
            durability: Durability::NoSync,
            ..Default::default()
        }
    }
}

/// What `Database::open` replayed and discarded (see
/// [`Database::last_recovery`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Committed transactions replayed from the WAL.
    pub replayed_commits: u64,
    /// Logical operations applied during replay.
    pub replayed_ops: u64,
    /// Operations after the last commit record — an uncommitted tail —
    /// discarded.
    pub discarded_ops: u64,
    /// Physically damaged tail bytes truncated by the WAL scan.
    pub torn_bytes: u64,
    /// Salvage mode only: tables quarantined (dropped from the catalog)
    /// because their heaps could not be fully read.  Empty on a normal
    /// open.
    pub quarantined_tables: Vec<String>,
    /// Salvage mode only: WAL records skipped because they could not be
    /// decoded or applied (e.g. they target a quarantined table).
    pub skipped_wal_records: u64,
    /// Salvage mode only: the checkpoint image was unreadable (bad
    /// header or snapshot) and every table in it was lost; recovery
    /// restarted from an empty state plus whatever the WAL could rebuild.
    pub image_lost: bool,
    /// Salvage mode only: the WAL chain was unreadable and was discarded
    /// rather than replayed.
    pub wal_lost: bool,
}

/// The durable half of a [`Database`]: paths, the WAL, and checkpoint
/// bookkeeping.  `None` on in-memory databases.
pub(crate) struct PersistentStorage {
    dir: PathBuf,
    wal: SharedWal,
    /// The WAL's reserved-LSN frontier, mirrored for page stamping.
    lsn_source: Arc<AtomicU64>,
    opts: DurabilityOptions,
    commits_since_checkpoint: u64,
    /// `ANALYZE` ran since the last checkpoint: the image's statistics
    /// are not the live ones.
    analyzed: bool,
    last_recovery: Option<RecoveryReport>,
    /// Set by `close` / `simulate_crash`: the drop hook must not
    /// checkpoint.
    skip_shutdown: bool,
    /// Group-commit gate, armed by [`Database::enable_group_commit`].
    /// When present, `wal_commit` appends without flushing and parks a
    /// [`CommitTicket`] in `pending_ticket`; the background flusher
    /// amortizes one fsync over every commit queued behind it.
    group: Option<GroupCommitter>,
    /// The ticket of the most recent deferred commit, picked up by
    /// [`Database::take_commit_ticket`] (the server engine collects it
    /// after each statement and acknowledges the client only once it
    /// resolves).
    pending_ticket: Option<CommitTicket>,
}

impl PersistentStorage {
    /// The durable half over `dir`: the WAL, shared so the group
    /// committer and the pool's flush gate can reach it, the LSN mirror,
    /// and what the open recovered (`None` after a create).
    fn new(
        dir: PathBuf,
        wal: Wal,
        opts: DurabilityOptions,
        last_recovery: Option<RecoveryReport>,
    ) -> PersistentStorage {
        let wal = SharedWal::new(wal);
        let lsn_source = Arc::new(AtomicU64::new(wal.with(|w| w.reserved_lsn())));
        PersistentStorage {
            dir,
            wal,
            lsn_source,
            opts,
            commits_since_checkpoint: 0,
            analyzed: false,
            last_recovery,
            skip_shutdown: false,
            group: None,
            pending_ticket: None,
        }
    }

    /// Make `pool` the live pool's kind: no-steal, its dirty pages gated
    /// behind the WAL, and its mutations stamped with the WAL's LSN.
    fn attach_pool(&self, pool: &BufferPool) {
        pool.set_pin_dirty(true);
        pool.set_flush_gate(Arc::new(self.wal.clone()) as Arc<dyn FlushGate>);
        pool.set_lsn_source(self.lsn_source.clone());
    }
}

// ---------------------------------------------------------------------
// Header page
// ---------------------------------------------------------------------

fn write_header(pg: &mut [u8], meta: Rid) {
    pg[..8].copy_from_slice(HEADER_MAGIC);
    pg[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    pg[12..20].copy_from_slice(&meta.page.0.to_le_bytes());
    pg[20..22].copy_from_slice(&meta.slot.to_le_bytes());
    let crc = crc32(&pg[..22]);
    pg[22..26].copy_from_slice(&crc.to_le_bytes());
}

fn read_header(pg: &[u8]) -> Result<Rid> {
    if &pg[..8] != HEADER_MAGIC {
        return Err(BdbmsError::corrupt(
            "bad magic in database header page (not a bdbms database?)",
        ));
    }
    let crc = u32::from_le_bytes(pg[22..26].try_into().unwrap());
    if crc32(&pg[..22]) != crc {
        return Err(BdbmsError::corrupt(
            "database header page checksum mismatch",
        ));
    }
    // the CRC vouches for the version: another one is a database this
    // build cannot read, not damage, and salvage must leave it alone
    let version = u32::from_le_bytes(pg[8..12].try_into().unwrap());
    if version != FORMAT_VERSION {
        return Err(BdbmsError::invalid(format!(
            "database format version {version} is not supported \
             (this build reads version {FORMAT_VERSION})"
        )));
    }
    Ok(Rid {
        page: PageId(u64::from_le_bytes(pg[12..20].try_into().unwrap())),
        slot: u16::from_le_bytes(pg[20..22].try_into().unwrap()),
    })
}

// ---------------------------------------------------------------------
// Sections
// ---------------------------------------------------------------------

/// Write `bytes` to fresh pages of `pool`, a page body each, as the
/// section `kind` named `name` of `table`.
fn write_section(
    pool: &BufferPool,
    table: &str,
    kind: u8,
    name: &str,
    bytes: &[u8],
) -> Result<Section> {
    let pages = bytes
        .chunks(PAGE_BODY)
        .map(|chunk| {
            let id = pool.allocate()?;
            pool.with_page_mut(id, |pg| pg[..chunk.len()].copy_from_slice(chunk))?;
            Ok(id)
        })
        .collect::<Result<_>>()?;
    Ok(Section {
        table: table.into(),
        kind,
        name: name.into(),
        pages,
        len: bytes.len(),
        crc: crc32(bytes),
    })
}

/// Read back the bytes of section `s`, handing them to `take` a page
/// body at a time: pages outside the image, a page count that does not
/// fit the length, or bytes that fail the CRC-32 are `Corrupt` (the
/// last after `take` has seen them).
fn read_section(pool: &BufferPool, s: &Section, mut take: impl FnMut(&[u8])) -> Result<()> {
    let what = || format!("section {} `{}` of `{}`", s.kind, s.name, s.table);
    let outside = s.pages.iter().any(|p| p.0 == 0 || p.0 >= pool.num_pages());
    if outside || s.pages.len() != s.len.div_ceil(PAGE_BODY) {
        return Err(BdbmsError::corrupt(format!(
            "{} of {} bytes on {} unfit page(s)",
            what(),
            s.len,
            s.pages.len()
        )));
    }
    let (mut crc, mut left) = (Crc32::new(), s.len);
    for &id in &s.pages {
        let body = left.min(PAGE_BODY);
        pool.with_page(id, |pg| {
            crc = crc.update(&pg[..body]);
            take(&pg[..body]);
        })?;
        left -= body;
    }
    if crc.finish() != s.crc {
        return Err(BdbmsError::corrupt(format!(
            "{}: checksum mismatch",
            what()
        )));
    }
    Ok(())
}

/// Put the section `s` of a known kind into the parts of its table.
fn load_section(
    pool: &BufferPool,
    parts: &mut BTreeMap<String, (String, TableParts)>,
    s: Section,
) -> Result<()> {
    if !matches!(s.kind, ORDER | STATS) {
        // a kind this build does not know: left to the heap
        return Ok(());
    }
    let Some((_, p)) = parts.get_mut(&s.table.to_ascii_lowercase()) else {
        return Err(BdbmsError::corrupt(format!(
            "a section for no table `{}`",
            s.table
        )));
    };
    if s.kind == STATS {
        let mut bytes = Vec::with_capacity(s.len);
        read_section(pool, &s, |b| bytes.extend_from_slice(b))?;
        p.stats = Some(TableStats::decode(&bytes)?);
    } else if s.len.is_multiple_of(4) {
        // a page body holds whole numbers, so each decodes where it lies
        let mut order = Vec::with_capacity(s.len / 4);
        read_section(pool, &s, |b| {
            let numbers = b.chunks_exact(4);
            order.extend(numbers.map(|n| u32::from_le_bytes(n.try_into().expect("4 bytes"))));
        })?;
        p.orders.push((s.name, order));
    } else {
        return Err(BdbmsError::corrupt(format!(
            "the stored order of sequence index `{}` is {} bytes long",
            s.name, s.len
        )));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Snapshot (checkpoint image metadata)
// ---------------------------------------------------------------------

/// Serialize the engine's physical state: each table's parts, with its
/// rows already written to the `moved` pages (page lists + rid maps
/// refer to the *new* store), the clock, the WAL frontier and the
/// `sections` written beside the rows.  What the tables are — schemas,
/// owners, indexes, sets — is rows of `$schema`.
fn encode_snapshot(
    db: &Database,
    moved: &[Moved],
    sections: &[Section],
    wal_frontier: u64,
) -> Vec<u8> {
    let mut body = Vec::new();
    codec::put_u64(&mut body, db.clock.now());
    // every WAL entry with an LSN below this is already folded into the
    // image; recovery skips them.  This is what makes the checkpoint's
    // rename → WAL-truncate sequence crash-safe: a crash between the
    // two leaves the new image + the old (pre-checkpoint) log, whose
    // entries are all below the frontier and are ignored, instead of
    // being double-applied.
    codec::put_u64(&mut body, wal_frontier);

    codec::put_u32(&mut body, moved.len() as u32);
    for ((name, heap, rows), t) in moved.iter().zip(db.catalog.all_tables()) {
        debug_assert!(t.name.eq_ignore_ascii_case(name));
        codec::put_str(&mut body, &t.name);
        codec::put_u64(&mut body, t.peek_next_row());
        let pages: Vec<u64> = heap.pages().iter().map(|p| p.0).collect();
        codec::put_u64s(&mut body, &pages);
        codec::put_u32(&mut body, rows.len() as u32);
        for (row_no, rid) in rows {
            codec::put_u64(&mut body, *row_no);
            codec::put_u64(&mut body, rid.page.0);
            codec::put_u16(&mut body, rid.slot);
        }
        // outdated bitmap, sparse
        codec::put_u64(&mut body, t.outdated.rows() as u64);
        codec::put_u64(&mut body, t.outdated.cols() as u64);
        let set_cells: Vec<(usize, usize)> = t.outdated.iter_set().collect();
        codec::put_u32(&mut body, set_cells.len() as u32);
        for (r, c) in set_cells {
            codec::put_u64(&mut body, r as u64);
            codec::put_u64(&mut body, c as u64);
        }
    }
    codec::put_u32(&mut body, sections.len() as u32);
    for s in sections {
        s.encode(&mut body);
    }

    let mut out = Vec::with_capacity(body.len() + 12);
    codec::put_u32(&mut out, FORMAT_VERSION);
    codec::put_u32(&mut out, crc32(&body));
    codec::put_u64(&mut out, body.len() as u64);
    out.extend_from_slice(&body);
    out
}

/// The parts of table `name`, claimed: a defined table without them is
/// corrupt.
fn take_parts(
    parts: &mut BTreeMap<String, (String, TableParts)>,
    name: &str,
) -> Result<TableParts> {
    let found = parts.remove(&name.to_ascii_lowercase());
    found
        .map(|(_, p)| p)
        .ok_or_else(|| BdbmsError::corrupt(format!("table `{name}` has no metadata entry")))
}

/// Decode a snapshot blob into a fresh `db` whose pool already serves
/// the image's pages (table heaps attach to it), returning the WAL
/// frontier: log entries below it are already part of the image.
/// Decode errors of the blob itself are fatal in both modes (the caller
/// treats that as image loss); what [`Database::load_tables`] finds is
/// fatal only without a quarantine list.  With one (salvage), sections
/// are not read: each sequence index is rebuilt from its heap, and each
/// user table's statistics are computed from it.
fn decode_snapshot_mode(
    db: &mut Database,
    blob: &[u8],
    pool: &Arc<BufferPool>,
    quarantine: Option<&mut Vec<String>>,
) -> Result<u64> {
    let mut head = Cur::new(blob);
    let version = head.u32()?;
    if version != FORMAT_VERSION {
        return Err(BdbmsError::corrupt(format!(
            "unsupported snapshot version {version}"
        )));
    }
    let crc = head.u32()?;
    let len = head.u64()? as usize;
    let body = blob
        .get(16..16 + len)
        .ok_or_else(|| BdbmsError::corrupt("snapshot shorter than its declared length"))?;
    if crc32(body) != crc {
        return Err(BdbmsError::corrupt("snapshot checksum mismatch"));
    }
    let mut cur = Cur::new(body);

    db.clock.advance_to(cur.u64()?);
    let wal_frontier = cur.u64()?;

    let n_tables = cur.len()?;
    let mut parts = BTreeMap::new();
    for _ in 0..n_tables {
        let name = cur.str()?;
        let next_row = cur.u64()?;
        let pages: Vec<PageId> = cur.u64s()?.into_iter().map(PageId).collect();
        let n = cur.len()?;
        // an entry is 18 bytes, so the bytes left cap what a corrupt
        // count can reserve
        let mut rid_map = Vec::with_capacity(n.min(cur.remaining() / 18));
        for _ in 0..n {
            let row_no = cur.u64()?;
            let page = PageId(cur.u64()?);
            let slot = cur.u16()?;
            rid_map.push((row_no, Rid { page, slot }));
        }
        // written ascending, so the map is one bulk build; a repeated
        // row number keeps its last entry, as per-entry inserts did
        let rows: BTreeMap<u64, Rid> = rid_map.into_iter().collect();
        let bm_rows = cur.u64()? as usize;
        let bm_cols = cur.u64()? as usize;
        // the dimensions drive an allocation, so cap them before trusting
        // them: a corrupt blob must not be able to overflow `rows * cols`
        // or reserve gigabytes
        if bm_rows
            .checked_mul(bm_cols)
            .is_none_or(|bits| bits > 1 << 30)
        {
            return Err(BdbmsError::corrupt(format!(
                "implausible outdated bitmap {bm_rows}x{bm_cols}"
            )));
        }
        let mut outdated = CellBitmap::new(bm_rows, bm_cols);
        let n = cur.len()?;
        for _ in 0..n {
            let r = cur.u64()? as usize;
            let c = cur.u64()? as usize;
            if r >= bm_rows || c >= bm_cols {
                return Err(BdbmsError::corrupt("outdated bit outside its bitmap"));
            }
            outdated.set(r, c);
        }
        let heap = HeapFile::attach(pool.clone(), pages);
        let p = TableParts {
            heap,
            rows,
            next_row,
            outdated,
            orders: Vec::new(),
            stats: None,
        };
        if let Some((name, _)) = parts.insert(name.to_ascii_lowercase(), (name, p)) {
            return Err(BdbmsError::corrupt(format!(
                "two metadata entries for table `{name}`"
            )));
        }
    }
    for _ in 0..cur.len()? {
        let s = Section::decode(&mut cur)?;
        if quarantine.is_none() {
            load_section(pool, &mut parts, s)?;
        }
    }
    if !cur.is_empty() {
        return Err(BdbmsError::corrupt("trailing bytes after snapshot"));
    }
    db.load_tables(parts, quarantine)?;
    Ok(wal_frontier)
}

impl Database {
    /// Build the catalog from the image's table `parts`: the catalog
    /// tables first, whose schemas are fixed in code, then each user
    /// table with its hidden tables as its `$schema` rows define them.
    /// Each table gets its one derive pass, which decodes every column
    /// of every live row, so a damaged heap page surfaces here.
    ///
    /// A definition without parts, parts no definition claims, a
    /// malformed definition or a heap that fails its pass is `Corrupt` —
    /// unless `quarantine` (salvage) is given: then the user table
    /// concerned is itemized there and dropped with all it owns, its
    /// definitions, grants and approval config, and unclaimed parts are
    /// itemized and dropped.  A catalog table is never quarantined: that
    /// would drop grants or definitions without a trace.
    fn load_tables(
        &mut self,
        mut parts: BTreeMap<String, (String, TableParts)>,
        mut quarantine: Option<&mut Vec<String>>,
    ) -> Result<()> {
        for (name, schema, view) in self.catalog_tables() {
            let p = take_parts(&mut parts, name)?;
            let history = view.map(History::Catalog);
            *self.catalog.table_mut(name)? =
                Table::from_parts(name.into(), schema, ADMIN.into(), p, history, &[])?;
        }
        let mut defined: BTreeMap<String, Vec<Vec<Value>>> = BTreeMap::new();
        for row in self.catalog.table(SCHEMA_TABLE)?.iter_rows() {
            let (_, row) = row?;
            defined
                .entry(on_table(&row).to_ascii_lowercase())
                .or_default()
                .push(row);
        }
        for (key, rows) in defined {
            let Err(e) = self.load_user_table(&rows, &mut parts) else {
                continue;
            };
            let Some(q) = quarantine.as_deref_mut() else {
                return Err(e);
            };
            let owned = format!("{key}$");
            parts.retain(|k, _| *k != key && !k.starts_with(&owned));
            let name = on_table(&rows[0]).to_string();
            self.drop_catalog_entries(&name)?;
            self.catalog_delete(SCHEMA_TABLE, |row| {
                on_table(row).eq_ignore_ascii_case(&name)
            })?;
            if self.catalog.has_table(&name) {
                self.catalog.drop_table(&name)?;
            }
            q.push(name);
        }
        for (name, _) in parts.into_values() {
            let Some(q) = quarantine.as_deref_mut() else {
                let orphan = format!("table `{name}` in the image has no definition");
                return Err(BdbmsError::corrupt(orphan));
            };
            q.push(name);
        }
        Ok(())
    }

    /// Build one user table and its hidden tables from its definitions'
    /// `rows` and their parts; the table's index definitions go to its
    /// one derive pass together.
    fn load_user_table(
        &mut self,
        rows: &[Vec<Value>],
        parts: &mut BTreeMap<String, (String, TableParts)>,
    ) -> Result<()> {
        let (mut table, mut sets, mut indexes) = (None, Vec::new(), Vec::new());
        for row in rows {
            let def = Definition::from_row(row)?;
            match def.kind {
                Kind::Index { column, seq } => indexes.push((def.name, column, seq)),
                Kind::Set { .. } => sets.push(def),
                Kind::Table { .. } if table.is_none() => table = Some(def),
                Kind::Table { .. } => {
                    let dup = format!("table `{}` is defined twice", def.name);
                    return Err(BdbmsError::corrupt(dup));
                }
            }
        }
        let table = table.ok_or_else(|| {
            let orphan = format!("definitions on `{}`, which has none", on_table(&rows[0]));
            BdbmsError::corrupt(orphan)
        })?;
        for def in std::iter::once(&table).chain(&sets) {
            self.add_defined_tables(def, |name, schema, owner, history| {
                let indexes = if name == table.name {
                    &indexes[..]
                } else {
                    &[]
                };
                let p = take_parts(parts, &name)?;
                Table::from_parts(name, schema, owner.into(), p, history, indexes)
            })?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Database: open / create / checkpoint / recovery
// ---------------------------------------------------------------------

/// Open (scanning) the WAL under `dir`, with the fault injector armed.
fn open_wal(dir: &Path, opts: &DurabilityOptions) -> Result<(Wal, WalScan)> {
    let (mut wal, scan) =
        Wal::open_sized(dir.join(WAL_DIR), opts.durability, opts.wal_segment_bytes)?;
    if let Some(inj) = &opts.fault_injector {
        wal.set_fault_injector(inj.clone());
    }
    Ok((wal, scan))
}

/// An image file as a page store, behind the fault injector if armed.
fn page_store(file: FileStore, fault: Option<&Arc<FaultInjector>>) -> Box<dyn PageStore> {
    match fault {
        Some(inj) => Box::new(FaultStore::new(Box::new(file), inj.clone())),
        None => Box::new(file),
    }
}

/// An engine with no tables yet, on a pool that no file backs until
/// the first checkpoint.
fn empty_engine(opts: &DurabilityOptions) -> Database {
    Database::with_pool(Arc::new(BufferPool::new(
        Box::new(MemStore::new()),
        opts.pool_pages,
    )))
}

impl Database {
    /// Create a new durable database directory at `path` with default
    /// [`DurabilityOptions`].  Errors with `AlreadyExists` if a database
    /// is already there.
    pub fn create(path: impl AsRef<Path>) -> Result<Database> {
        Self::create_with(path, DurabilityOptions::default())
    }

    /// [`create`](Self::create) with explicit options.
    pub fn create_with(path: impl AsRef<Path>, opts: DurabilityOptions) -> Result<Database> {
        let dir = path.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        if dir.join(DATA_FILE).exists() {
            return Err(BdbmsError::already_exists(format!(
                "database at `{}`",
                dir.display()
            )));
        }
        let (mut wal, _stale) = open_wal(&dir, &opts)?;
        // a WAL without a data file is debris from an interrupted create
        wal.reset()?;
        let mut db = empty_engine(&opts);
        db.storage = Some(PersistentStorage::new(dir, wal, opts, None));
        // the first checkpoint writes the empty image and swaps the pool
        // onto the new FileStore
        db.checkpoint_inner()?;
        db.attach_log();
        Ok(db)
    }

    /// [`open`](Self::open) the database at `path` if a data file is
    /// already there, otherwise [`create`](Self::create) it — the
    /// server's boot behavior.
    pub fn open_or_create(path: impl AsRef<Path>) -> Result<Database> {
        let dir = path.as_ref();
        if dir.join(DATA_FILE).exists() {
            Self::open(dir)
        } else {
            Self::create(dir)
        }
    }

    /// Open an existing durable database, replaying the WAL: committed
    /// transactions become visible and the uncommitted tail is
    /// discarded.  If the WAL held any frame, a fresh checkpoint is
    /// written before the database is handed back (so the WAL is empty
    /// and the image current); a clean WAL leaves the files untouched.
    pub fn open(path: impl AsRef<Path>) -> Result<Database> {
        Self::open_with(path, DurabilityOptions::default())
    }

    /// [`open`](Self::open) with explicit options.
    pub fn open_with(path: impl AsRef<Path>, opts: DurabilityOptions) -> Result<Database> {
        Self::recover(path.as_ref(), opts, false)
    }

    /// The one recovery path behind [`open_with`](Self::open_with) and
    /// [`open_salvage_with`](Self::open_salvage_with): load the image,
    /// scan and replay the WAL, attach the storage, and checkpoint unless
    /// the log added nothing.  `salvage` only picks the error policy:
    /// where `open` refuses damage, salvage records it in the report and
    /// goes on.
    fn recover(dir: &Path, opts: DurabilityOptions, salvage: bool) -> Result<Database> {
        let data = dir.join(DATA_FILE);
        if !data.exists() {
            return Err(BdbmsError::not_found(format!(
                "no database at `{}`",
                dir.display()
            )));
        }
        let mut report = RecoveryReport::default();
        let quarantine = salvage.then_some(&mut report.quarantined_tables);
        let (mut db, wal_frontier) = match Self::load_image(&data, &opts, quarantine) {
            // only damage is dropped: an image of another format version
            // is refused, in salvage too
            Err(e) if salvage && e.code() == ErrorCode::Corrupt => {
                report.image_lost = true;
                report.quarantined_tables.clear();
                // frontier 0: let the WAL rebuild everything it can
                (empty_engine(&opts), 0)
            }
            loaded => loaded?,
        };
        let (wal, scan) = match open_wal(dir, &opts) {
            Err(_) if salvage => {
                // the chain is unreadable mid-stream: discard it and
                // start a fresh log (the image state still stands)
                report.wal_lost = true;
                fs::remove_dir_all(dir.join(WAL_DIR))?;
                open_wal(dir, &opts)?
            }
            opened => opened?,
        };
        // A log with no frame whose LSNs continue past the image's
        // frontier adds nothing to the image: the image already is the
        // database.  (A log that restarted below the frontier would have
        // its next commits skipped by a later recovery.)  Salvage always
        // rewrites the image, so the damage it dropped leaves the disk.
        let clean = !salvage && scan.entries.is_empty() && wal.reserved_lsn() >= wal_frontier;
        db.replay(scan, wal_frontier, &mut report, salvage)?;
        let ps = db.storage.insert(PersistentStorage::new(
            dir.to_path_buf(),
            wal,
            opts,
            Some(report),
        ));
        if clean {
            ps.attach_pool(&db.pool);
        } else {
            // fold the replayed state into a fresh image and truncate the
            // WAL: a discarded tail left in the log would become
            // replayable behind the next commit
            db.checkpoint_inner()?;
        }
        db.attach_log();
        Ok(db)
    }

    /// Load the checkpoint image: a buffer pool over the data file, the
    /// header page, and the snapshot blob decoded into a fresh engine.
    /// Returns the table-level state and the WAL frontier.  With a
    /// quarantine list (salvage mode), tables whose heaps fail the
    /// rebuild's one pass are itemized there instead of failing the load.
    fn load_image(
        data: &Path,
        opts: &DurabilityOptions,
        quarantine: Option<&mut Vec<String>>,
    ) -> Result<(Database, u64)> {
        let store = page_store(FileStore::open(data)?, opts.fault_injector.as_ref());
        let pool = Arc::new(BufferPool::new(store, opts.pool_pages));
        // no page of the image may be overwritten while we recover on it
        pool.set_pin_dirty(true);
        if pool.num_pages() == 0 {
            return Err(BdbmsError::corrupt(format!(
                "database file `{}` is empty",
                data.display()
            )));
        }
        let meta_rid = pool.with_page(PageId(0), read_header)??;
        let meta_heap = HeapFile::attach(pool.clone(), Vec::new());
        let blob = meta_heap
            .get(meta_rid)
            .map_err(|e| BdbmsError::corrupt(format!("unreadable snapshot record: {e}")))?;
        let mut db = Database::with_pool(pool.clone());
        let wal_frontier = decode_snapshot_mode(&mut db, &blob, &pool, quarantine)?;
        Ok((db, wal_frontier))
    }

    /// Open a damaged database, salvaging what can still be read instead
    /// of refusing.  Where [`open`](Self::open) fails on the first
    /// corruption, salvage degrades gracefully:
    ///
    /// * a table whose heap cannot be fully read is **quarantined** —
    ///   dropped from the catalog and itemized in the returned
    ///   [`RecoveryReport::quarantined_tables`] — while every untouched
    ///   table opens normally;
    /// * an unreadable checkpoint image (bad header, snapshot checksum)
    ///   loses all tables ([`RecoveryReport::image_lost`]) but recovery
    ///   still proceeds from empty state plus the WAL — while an image of
    ///   another format version is refused with `Invalid`, untouched;
    /// * WAL records that cannot be decoded or applied are skipped and
    ///   counted, not fatal; an unreadable WAL chain is discarded
    ///   ([`RecoveryReport::wal_lost`]).
    ///
    /// On return the surviving state has been re-checkpointed, so the
    /// on-disk image is clean again.  A committed transaction touching a
    /// quarantined table may be partially applied to the survivors —
    /// salvage trades atomicity for availability, which is why it is a
    /// separate entry point and never the default.
    pub fn open_salvage(path: impl AsRef<Path>) -> Result<Database> {
        Self::open_salvage_with(path, DurabilityOptions::default())
    }

    /// [`open_salvage`](Self::open_salvage) with explicit options.
    pub fn open_salvage_with(path: impl AsRef<Path>, opts: DurabilityOptions) -> Result<Database> {
        Self::recover(path.as_ref(), opts, true)
    }

    /// Replay scanned WAL entries into `report`: buffer records, apply
    /// them on each commit, and count the uncommitted tail as discarded.
    /// Entries below `frontier` are already folded into the checkpoint
    /// image (a crash hit the window between the image rename and the
    /// WAL truncation) and are skipped, not double-applied.  A record
    /// that does not decode, or does not apply (a replay that diverged
    /// from the image), fails the open — unless `salvage`, which counts
    /// it in `skipped_wal_records` and goes on.
    fn replay(
        &mut self,
        scan: WalScan,
        frontier: u64,
        report: &mut RecoveryReport,
        salvage: bool,
    ) -> Result<()> {
        report.torn_bytes = scan.torn_bytes;
        let mut pending: Vec<WalRecord> = Vec::new();
        for entry in scan.entries {
            if entry.lsn < frontier {
                continue;
            }
            let rec = match WalRecord::decode(&entry.payload) {
                Ok(rec) => rec,
                Err(_) if salvage => {
                    report.skipped_wal_records += 1;
                    continue;
                }
                Err(e) => return Err(e),
            };
            if let WalRecord::Commit { clock } = rec {
                for r in pending.drain(..) {
                    match self.apply_wal_record(r) {
                        Ok(()) => report.replayed_ops += 1,
                        Err(_) if salvage => report.skipped_wal_records += 1,
                        Err(e) => {
                            return Err(BdbmsError::corrupt(format!(
                                "WAL replay diverged from the checkpoint image: {e}"
                            )))
                        }
                    }
                }
                self.clock.advance_to(clock);
                report.replayed_commits += 1;
            } else {
                pending.push(rec);
            }
        }
        report.discarded_ops = pending.len() as u64;
        Ok(())
    }

    /// Apply one redo record against the live state, through the same
    /// engine methods that produced it: committed records on replay, and
    /// inverses on rollback (`crate::txn`).  A row record on `$schema`
    /// puts its definition into or out of effect
    /// ([`define`](Self::define)) before the row goes in or after it
    /// comes out, so a definition that cannot take effect leaves its row
    /// as it was.
    pub(crate) fn apply_wal_record(&mut self, rec: WalRecord) -> Result<()> {
        match rec {
            WalRecord::RowInsert {
                table,
                row_no,
                values,
            } => {
                if table == SCHEMA_TABLE {
                    self.define(&values, true)?;
                }
                self.catalog
                    .table_mut(&table)?
                    .insert_with_row_no(row_no, values)?;
            }
            WalRecord::RowUpdate {
                table,
                row_no,
                values,
            } => {
                self.catalog.table_mut(&table)?.update(row_no, values)?;
            }
            WalRecord::RowDelete { table, row_no } => {
                let row = self.catalog.table_mut(&table)?.delete(row_no)?;
                if table == SCHEMA_TABLE {
                    self.define(&row, false)?;
                }
            }
            WalRecord::OutdatedMark { table, row_no, col } => {
                self.catalog
                    .table_mut(&table)?
                    .mark_outdated(row_no, col as usize);
            }
            WalRecord::OutdatedClear { table, row_no, col } => {
                self.catalog
                    .table_mut(&table)?
                    .clear_outdated(row_no, col as usize);
            }
            WalRecord::Commit { clock } => {
                self.clock.advance_to(clock);
            }
        }
        Ok(())
    }

    /// Build redo records from now on and attach every table to the
    /// transaction log.
    fn attach_log(&mut self) {
        self.txn.set_durable();
        for t in self.catalog.tables_mut() {
            t.attach_log(self.txn.log());
        }
        self.register_wal_metrics();
    }

    /// Publish the WAL's instruments (owned by [`Wal`], which lives in
    /// the storage crate and knows nothing of the registry) under their
    /// engine-wide names.  Every durable open/create path funnels through
    /// [`attach_log`](Self::attach_log), so this runs exactly once per
    /// attached WAL.
    fn register_wal_metrics(&self) {
        let Some(ps) = &self.storage else { return };
        let wm = ps.wal.with(|w| w.metrics());
        self.metrics.register_counter("wal.appends", wm.appends);
        self.metrics.register_counter("wal.fsyncs", wm.fsyncs);
        self.metrics
            .register_histogram("wal.fsync_latency_ns", wm.fsync_latency_ns);
    }

    /// Is this database backed by files (vs. purely in-memory)?
    pub fn is_persistent(&self) -> bool {
        self.storage.is_some()
    }

    /// The database directory, if persistent.
    pub fn path(&self) -> Option<&Path> {
        self.storage.as_ref().map(|s| s.dir.as_path())
    }

    /// What the last `open` replayed/discarded (`None` for in-memory
    /// databases and fresh `create`s).
    pub fn last_recovery(&self) -> Option<&RecoveryReport> {
        self.storage.as_ref().and_then(|s| s.last_recovery.as_ref())
    }

    /// Live WAL segment files (observability: checkpoints truncate them).
    pub fn wal_segment_count(&self) -> Option<usize> {
        self.storage
            .as_ref()
            .map(|s| s.wal.with(|w| w.segment_count()))
            .transpose()
            .ok()
            .flatten()
    }

    /// Write a checkpoint: a complete fresh image of the database,
    /// atomically renamed over the old one, after which the WAL is
    /// truncated.  No-op for in-memory databases; `TxnState` error inside
    /// an open transaction (the image must be transaction-consistent).
    pub fn checkpoint(&mut self) -> Result<()> {
        if self.storage.is_none() {
            return Ok(());
        }
        if self.in_transaction() {
            return Err(BdbmsError::txn_state(
                "CHECKPOINT cannot run inside an open transaction",
            ));
        }
        self.checkpoint_inner()
    }

    /// The checkpoint body (callers have verified preconditions).
    pub(crate) fn checkpoint_inner(&mut self) -> Result<()> {
        let cp_started = std::time::Instant::now();
        let (dir, pool_pages, wal, fault) = {
            let ps = self.storage.as_ref().expect("checkpoint of durable db");
            (
                ps.dir.clone(),
                ps.opts.pool_pages,
                ps.wal.clone(),
                ps.opts.fault_injector.clone(),
            )
        };
        // make committed WAL records durable before the image rewrite:
        // if the rename below never happens, recovery needs them
        let wal_frontier = wal.with(|w| -> Result<u64> {
            w.flush()?;
            Ok(w.reserved_lsn())
        })?;
        let tmp = dir.join(DATA_TMP);
        let _ = fs::remove_file(&tmp);
        let tmp_store = page_store(FileStore::create(&tmp)?, fault.as_ref());
        // the registry exports the live pool's counters: the successor
        // keeps counting on them, so `buffer.*` outlive the checkpoint
        let new_pool = Arc::new(BufferPool::with_metrics(
            tmp_store,
            pool_pages,
            self.pool.metrics(),
        ));
        let header = new_pool.allocate()?;
        debug_assert_eq!(header, PageId(0));
        let (mut moved, mut sections): (Vec<Moved>, _) = (Vec::new(), Vec::new());
        for t in self.catalog.all_tables() {
            let (heap, rows) = t.write_rows_to(new_pool.clone())?;
            for sidx in t.seq_indexes() {
                // the loop frees `numbers`: the pages are filled from one copy
                let numbers = sidx.order();
                let mut order = Vec::with_capacity(4 * numbers.len());
                for n in numbers {
                    order.extend_from_slice(&n.to_le_bytes());
                }
                sections.push(write_section(
                    &new_pool, &t.name, ORDER, &sidx.name, &order,
                )?);
            }
            // statistics are serialized as they stand, not recomputed
            if owner_of(&t.name).is_none() {
                let mut stats = Vec::new();
                t.stats().encode(&mut stats);
                sections.push(write_section(&new_pool, &t.name, STATS, "", &stats)?);
            }
            moved.push((t.name.clone(), heap, rows));
        }
        let blob = encode_snapshot(self, &moved, &sections, wal_frontier);
        let mut meta_heap = HeapFile::create(new_pool.clone())?;
        let meta_rid = meta_heap.insert(&blob)?;
        new_pool.with_page_mut(PageId(0), |pg| write_header(pg, meta_rid))?;
        new_pool.flush_all()?;
        new_pool.sync_store()?;
        if let Some(inj) = &fault {
            // a rename either happens or doesn't — data-shaped faults
            // degrade to an error, leaving the old image in place
            if inj.next_op() != IoDecision::Proceed {
                return Err(FaultInjector::injected_error("checkpoint image rename"));
            }
        }
        fs::rename(&tmp, dir.join(DATA_FILE))?;
        if let Ok(d) = File::open(&dir) {
            let _ = d.sync_all();
        }
        // adopt the new image as the live storage
        for (name, heap, rows) in moved {
            self.catalog.table_mut(&name)?.swap_storage(heap, rows);
        }
        let ps = self.storage.as_mut().expect("still durable");
        ps.attach_pool(&new_pool);
        self.pool = new_pool;
        // Truncating the log is pure space reclamation at this point:
        // the image's WAL frontier makes recovery skip the old entries
        // whether or not the files disappear, so a failure here must not
        // fail the (already effective) checkpoint.
        let _ = wal.with(|w| w.reset());
        ps.commits_since_checkpoint = 0;
        ps.analyzed = false;
        self.engine_metrics.checkpoints.inc();
        self.engine_metrics
            .checkpoint_duration_ns
            .record(cp_started.elapsed().as_nanos() as u64);
        if let Ok(md) = fs::metadata(dir.join(DATA_FILE)) {
            self.engine_metrics.checkpoint_bytes.add(md.len());
        }
        Ok(())
    }

    /// Checkpoint if the auto-checkpoint interval has elapsed.
    /// Best-effort: the triggering commit is already durable in the WAL,
    /// so a checkpoint failure (say, no space for the image rewrite)
    /// must not turn a successful commit into an error — the counter
    /// stays past the threshold and the next commit retries.
    pub(crate) fn maybe_checkpoint(&mut self) {
        let due = match &self.storage {
            Some(ps) => ps.commits_since_checkpoint >= ps.opts.checkpoint_every_commits,
            None => false,
        };
        if due {
            let _ = self.checkpoint_inner();
        }
    }

    /// Append the open transaction's redo records + a commit record to
    /// the WAL and flush per the durability policy.  Called *before* the
    /// in-memory commit; an error here means the transaction must roll
    /// back (the partial WAL tail has no commit record and is discarded
    /// by the next recovery).
    ///
    /// With [group commit](Database::enable_group_commit) armed, the
    /// flush is *deferred*: the records are appended and the commit LSN
    /// queued at the group-commit gate, and the resulting
    /// [`CommitTicket`] is parked for [`Database::take_commit_ticket`].
    /// `Ok` then means "appended, durability pending" — the caller must
    /// not acknowledge the commit to a client until the ticket resolves.
    pub(crate) fn wal_commit(&mut self) -> Result<()> {
        if self.storage.is_none() {
            return Ok(());
        }
        let recs = self.txn.take_redo();
        if recs.is_empty() {
            return Ok(()); // read-only transaction: no WAL traffic
        }
        let clock = self.clock.now();
        let ps = self.storage.as_mut().expect("checked above");
        let group = &ps.group;
        let ticket = ps.wal.with(|w| -> Result<Option<CommitTicket>> {
            // on any failure the half-written commit is rewound out of
            // the log: left in place, a *later* successful commit would
            // make these frames replayable and resurrect a transaction
            // the caller is about to roll back.  (If the rewind itself
            // fails the WAL latches damaged and refuses further writes
            // until reopen.)
            let pos = w.position();
            let append_all = |w: &mut bdbms_storage::Wal| -> Result<()> {
                let mut buf = Vec::new();
                for r in &recs {
                    buf.clear();
                    r.encode(&mut buf);
                    w.append(&buf)?;
                }
                buf.clear();
                WalRecord::Commit { clock }.encode(&mut buf);
                w.append(&buf)?;
                // grouped commits leave the flush to the gate's flusher
                // thread — one fsync covers every commit queued there
                if group.is_some() {
                    Ok(())
                } else {
                    w.flush()
                }
            };
            // Bounded deterministic retry: a *transient* I/O failure
            // (ErrorCode::Io — a flaky fsync, not logical damage) is
            // retried up to twice more after rewinding the half-written
            // frames.  Anything else, a failed rewind, or exhaustion
            // escalates to the caller's rollback.
            let mut last_err = None;
            for _ in 0..3 {
                match append_all(w) {
                    Ok(()) => {
                        last_err = None;
                        break;
                    }
                    Err(e) => {
                        let rewound = w.rewind(pos).is_ok();
                        let transient = e.code() == ErrorCode::Io;
                        last_err = Some(e);
                        if !rewound || !transient {
                            break;
                        }
                    }
                }
            }
            if let Some(e) = last_err {
                return Err(e);
            }
            ps.lsn_source.store(w.reserved_lsn(), Ordering::Release);
            // the commit record is the last frame appended
            Ok(group.as_ref().map(|g| g.submit(w.reserved_lsn() - 1)))
        })?;
        ps.pending_ticket = ticket;
        ps.commits_since_checkpoint += 1;
        Ok(())
    }

    /// Arm group commit: commits append their WAL frames and queue at
    /// the flush gate instead of fsyncing inline, and a background
    /// flusher resolves every queued commit with one fsync.  Returns
    /// `false` (and does nothing) for in-memory databases.
    ///
    /// After every successful commit the caller **must** collect the
    /// pending [`CommitTicket`] via [`Database::take_commit_ticket`]
    /// and wait on it before
    /// acknowledging the commit externally — this is how the server
    /// keeps the durability contract while amortizing the barrier.
    /// In-process callers that don't collect tickets still get correct
    /// recovery semantics (unflushed commits are simply not yet
    /// durable), which is why this is opt-in rather than default.
    pub fn enable_group_commit(&mut self) -> bool {
        match self.storage.as_mut() {
            Some(ps) => {
                if ps.group.is_none() {
                    let group = GroupCommitter::new(ps.wal.clone());
                    let gm = group.metrics();
                    self.metrics
                        .register_histogram("group.sizes", gm.group_sizes);
                    self.metrics
                        .register_gauge("group.fsync_ema_ns", gm.fsync_ema_ns);
                    ps.group = Some(group);
                }
                true
            }
            None => false,
        }
    }

    /// Is the group-commit gate armed?
    pub fn group_commit_enabled(&self) -> bool {
        self.storage.as_ref().is_some_and(|ps| ps.group.is_some())
    }

    /// Take the ticket of the most recent deferred commit, if any.
    /// Present only after a commit that ran with group commit armed and
    /// actually wrote WAL records (read-only commits and in-memory
    /// databases never produce one).
    pub fn take_commit_ticket(&mut self) -> Option<CommitTicket> {
        self.storage
            .as_mut()
            .and_then(|ps| ps.pending_ticket.take())
    }

    /// Shared handle to the WAL's fsync counter, the one the registry
    /// exports as `wal.fsyncs` (`None` in-memory).  Lets the server
    /// observe fsync totals from other threads while the database stays
    /// pinned to its engine thread.
    pub fn wal_sync_counter(&self) -> Option<Arc<Counter>> {
        self.storage
            .as_ref()
            .map(|ps| ps.wal.with(|w| w.metrics().fsyncs))
    }

    /// Note that `ANALYZE` replaced a table's statistics, which the next
    /// close must then checkpoint.
    pub(crate) fn note_analyze(&mut self) {
        if let Some(ps) = self.storage.as_mut() {
            ps.analyzed = true;
        }
    }

    /// Does the image lack something the engine holds?  Only a commit
    /// or an `ANALYZE` since the last checkpoint makes it so.
    fn image_behind(&self) -> bool {
        let ps = self.storage.as_ref();
        ps.is_some_and(|ps| ps.commits_since_checkpoint > 0 || ps.analyzed)
    }

    /// Checkpoint, if the image is behind, and shut down cleanly: a
    /// database that committed nothing and ran no `ANALYZE` since its
    /// last checkpoint closes without a write.  (Dropping a durable
    /// database does the same, best-effort; `close` surfaces the error.)
    pub fn close(mut self) -> Result<()> {
        if self.in_transaction() {
            let _ = self.txn_rollback();
        }
        let r = if self.image_behind() {
            self.checkpoint()
        } else {
            Ok(())
        };
        if let Some(ps) = self.storage.as_mut() {
            ps.skip_shutdown = true;
        }
        r
    }

    /// Drop the database *without* the shutdown checkpoint — exactly what
    /// a `kill -9` leaves behind: the last checkpoint image plus the WAL
    /// as flushed by committed transactions.  The crash-recovery suite is
    /// built on this.
    pub fn simulate_crash(mut self) {
        if let Some(ps) = self.storage.as_mut() {
            ps.skip_shutdown = true;
        }
    }
}

impl Drop for Database {
    fn drop(&mut self) {
        let Some(ps) = &self.storage else { return };
        if ps.skip_shutdown {
            return;
        }
        if self.in_transaction() {
            let _ = self.txn_rollback();
        }
        if self.image_behind() {
            let _ = self.checkpoint_inner();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One record of every variant — shared by the roundtrip test and
    /// the mutation fuzz below.
    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::RowInsert {
                table: "Gene".into(),
                row_no: 3,
                values: vec![Value::Text("JW0080".into()), Value::Int(11), Value::Null],
            },
            WalRecord::RowUpdate {
                table: "Gene".into(),
                row_no: 3,
                values: vec![Value::Float(2.5)],
            },
            WalRecord::RowDelete {
                table: "Gene".into(),
                row_no: 9,
            },
            WalRecord::OutdatedMark {
                table: "Gene".into(),
                row_no: 1,
                col: 2,
            },
            WalRecord::OutdatedClear {
                table: "Gene".into(),
                row_no: 1,
                col: 2,
            },
            WalRecord::Commit { clock: 99 },
        ]
    }

    #[test]
    fn wal_record_roundtrip_every_variant() {
        for rec in sample_records() {
            let mut buf = Vec::new();
            rec.encode(&mut buf);
            let back = WalRecord::decode(&buf).unwrap();
            let mut buf2 = Vec::new();
            back.encode(&mut buf2);
            assert_eq!(buf, buf2, "roundtrip drift for {rec:?}");
        }
    }

    #[test]
    fn wal_record_decode_rejects_garbage() {
        assert!(WalRecord::decode(&[]).is_err());
        assert!(WalRecord::decode(&[200]).is_err());
        let mut buf = Vec::new();
        WalRecord::Commit { clock: 7 }.encode(&mut buf);
        buf.truncate(buf.len() - 2);
        assert!(WalRecord::decode(&buf).is_err());
        // the retired bulk-load record, framed as older versions wrote it
        // (tag, table, source path, format byte, row count)
        let mut buf = vec![25];
        codec::put_str(&mut buf, "Gene");
        codec::put_str(&mut buf, "/data/genes.fasta");
        codec::put_u8(&mut buf, 0);
        codec::put_u64(&mut buf, 50_000);
        let err = WalRecord::decode(&buf).unwrap_err();
        assert_eq!(err.code(), ErrorCode::Corrupt, "{err}");
        // the retired user, grant, approval-config and rule records, and
        // the retired table, index, set and sequence-index DDL records
        for tag in [15, 16, 17, 18, 19, 22, 23, 7, 8, 9, 10, 11, 12, 26, 27] {
            let mut buf = vec![tag];
            codec::put_str(&mut buf, "alice");
            codec::put_u32(&mut buf, 0);
            let err = WalRecord::decode(&buf).unwrap_err();
            assert!(err.message().contains("unknown WAL record tag"), "{err}");
        }
    }

    /// A definition and the metadata entries must agree: a defined table
    /// with no entry, or entries no definition claims, are `Corrupt` for
    /// `open`; salvage quarantines them, and the database it leaves opens
    /// cleanly.
    #[test]
    fn definitions_and_metadata_entries_must_agree() {
        let dir = std::env::temp_dir().join(format!("bdbms-defs-{}.bdbms", std::process::id()));
        let text = |s: &str| Value::Text(s.into());
        for (ghost, quarantined) in [
            (true, vec!["Ghost"]),
            (false, vec!["T", "T$$approval", "T$$deleted"]),
        ] {
            let _ = fs::remove_dir_all(&dir);
            let mut db = Database::create(&dir).unwrap();
            for sql in [
                "CREATE TABLE T (K INT)",
                "INSERT INTO T VALUES (1)",
                "CREATE TABLE U (K INT)",
            ] {
                db.execute(sql).unwrap();
            }
            // a definition row written behind `define`'s back, or one
            // taken away from under its table
            let schema = db.catalog.table_mut(SCHEMA_TABLE).unwrap();
            if ghost {
                let mut row = schema.get(0).unwrap();
                (row[0], row[2]) = (text("Ghost"), text("Ghost"));
                schema.insert(row).unwrap();
            } else {
                schema.delete(0).unwrap();
            }
            db.close().unwrap();
            let err = Database::open(&dir).map(drop).unwrap_err();
            assert_eq!(err.code(), ErrorCode::Corrupt, "{err}");
            let db = Database::open_salvage(&dir).unwrap();
            let report = db.last_recovery().unwrap();
            assert_eq!(report.quarantined_tables, quarantined);
            assert!(db.catalog.has_table("U") && !db.catalog.has_table("Ghost"));
            assert_eq!(db.catalog.has_table("T"), ghost);
            assert!(db.check().unwrap().is_ok());
            drop(db);
            Database::open(&dir).unwrap().close().unwrap();
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// The metadata record of the image under `dir`: its body up to the
    /// section list, and the sections listed.
    fn image_sections(dir: &Path) -> (Vec<u8>, Vec<Section>) {
        let store = FileStore::open(dir.join(DATA_FILE)).unwrap();
        let pool = Arc::new(BufferPool::new(Box::new(store), 64));
        let meta_rid = pool.with_page(PageId(0), read_header).unwrap().unwrap();
        let blob = HeapFile::attach(pool, Vec::new()).get(meta_rid).unwrap();
        let body = &blob[16..];
        let mut cur = Cur::new(body);
        let (_clock, _frontier) = (cur.u64().unwrap(), cur.u64().unwrap());
        for _ in 0..cur.len().unwrap() {
            let (_name, _next_row, _pages) = (cur.str(), cur.u64(), cur.u64s());
            for _ in 0..cur.len().unwrap() {
                let _rid_entry = (cur.u64(), cur.u64(), cur.u16());
            }
            let _dimensions = (cur.u64(), cur.u64());
            for _ in 0..cur.len().unwrap() {
                let _bit = (cur.u64(), cur.u64());
            }
        }
        let head = body[..body.len() - cur.remaining()].to_vec();
        let n = cur.len().unwrap();
        let sections = (0..n).map(|_| Section::decode(&mut cur).unwrap());
        (head, sections.collect())
    }

    /// Point the image under `dir` at a new metadata record: `head`
    /// followed by `sections`.
    fn rewrite_sections(dir: &Path, head: &[u8], sections: &[Section]) {
        let mut body = head.to_vec();
        codec::put_u32(&mut body, sections.len() as u32);
        sections.iter().for_each(|s| s.encode(&mut body));
        let store = FileStore::open(dir.join(DATA_FILE)).unwrap();
        let pool = Arc::new(BufferPool::new(Box::new(store), 64));
        let mut meta_heap = HeapFile::create(pool.clone()).unwrap();
        let meta_rid = meta_heap.insert(&frame_body(&body)).unwrap();
        pool.with_page_mut(PageId(0), |pg| write_header(pg, meta_rid))
            .unwrap();
        pool.flush_all().unwrap();
    }

    /// `T (K INT, V TEXT)` under a fresh directory named after `name`,
    /// closed with its largest `K` deleted: its stored bounds are wider
    /// than an `ANALYZE` finds.
    fn closed_with_wide_bounds(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bdbms-{name}-{}.bdbms", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut db = Database::create(&dir).unwrap();
        db.execute("CREATE TABLE T (K INT, V TEXT)").unwrap();
        db.execute("INSERT INTO T VALUES (1, 'a'), (2, NULL), (3, 'c'), (40, 'd')")
            .unwrap();
        db.execute("DELETE FROM T WHERE K = 40").unwrap();
        db.close().unwrap();
        dir
    }

    /// `T`'s statistics in `Debug` form, and whether an `ANALYZE` leaves
    /// them as they are.
    fn stats_are_exact(db: &mut Database) -> bool {
        let stats = |db: &Database| format!("{:?}", db.catalog.table("T").unwrap().stats());
        let before = stats(db);
        db.execute("ANALYZE T").unwrap();
        stats(db) == before
    }

    /// A section of a kind this build does not know is skipped, pages
    /// and all; a user table whose statistics have no section gets them
    /// computed from its heap, exactly as `ANALYZE` would.
    #[test]
    fn unknown_sections_are_skipped_and_missing_statistics_computed() {
        let dir = closed_with_wide_bounds("sections");
        let (head, mut sections) = image_sections(&dir);
        let kinds: Vec<(&str, u8)> = sections
            .iter()
            .map(|s| (s.table.as_str(), s.kind))
            .collect();
        assert_eq!(kinds, [("T", STATS)], "hidden tables keep none");
        // as stored: the bounds deletes left wide
        let mut db = Database::open(&dir).unwrap();
        assert!(!stats_are_exact(&mut db));
        db.simulate_crash();
        sections[0] = Section {
            table: "T".into(),
            kind: 200,
            name: "from a later build".into(),
            pages: vec![PageId(u64::MAX)],
            len: 3,
            crc: 0,
        };
        rewrite_sections(&dir, &head, &sections);
        let mut db = Database::open(&dir).unwrap();
        assert!(stats_are_exact(&mut db), "computed at open");
        assert_eq!(db.execute("SELECT K FROM T").unwrap().rows.len(), 3);
        assert!(db.check().unwrap().is_ok());
        drop(db);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A statistics section whose bytes fail its CRC-32 (under a valid
    /// page checksum) is `Corrupt` for `open`; salvage does not read it,
    /// keeps the table and computes its statistics from the heap.
    #[test]
    fn a_stats_section_failing_its_checksum_is_corrupt_and_salvage_recomputes() {
        use bdbms_storage::{stamp_page_checksum, PAGE_SIZE};
        let dir = closed_with_wide_bounds("bad-stats");
        let (_, sections) = image_sections(&dir);
        let page = sections[0].pages[0].0 as usize * PAGE_SIZE;
        let data = dir.join(DATA_FILE);
        let mut bytes = fs::read(&data).unwrap();
        // the first column's NULL count
        bytes[page + 4] ^= 0x01;
        stamp_page_checksum(&mut bytes[page..page + PAGE_SIZE]);
        fs::write(&data, &bytes).unwrap();
        let err = Database::open(&dir).map(drop).unwrap_err();
        assert_eq!(err.code(), ErrorCode::Corrupt, "{err}");
        assert!(err.message().contains("checksum mismatch"), "{err}");
        let mut db = Database::open_salvage(&dir).unwrap();
        assert!(db.last_recovery().unwrap().quarantined_tables.is_empty());
        assert!(stats_are_exact(&mut db), "computed by salvage");
        assert_eq!(db.execute("SELECT K FROM T").unwrap().rows.len(), 3);
        assert!(db.check().unwrap().is_ok());
        db.close().unwrap();
        Database::open(&dir).unwrap().close().unwrap();
        let _ = fs::remove_dir_all(&dir);
    }

    /// A checkpoint writes each page of its image once: the pool's
    /// write-backs during it equal the image's page count.
    #[test]
    fn a_checkpoint_writes_each_page_once() {
        let dir = std::env::temp_dir().join(format!("bdbms-writes-{}.bdbms", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut db = Database::create(&dir).unwrap();
        db.execute("CREATE TABLE S (K INT, V TEXT, W TEXT)")
            .unwrap();
        let rows: Vec<String> = (0..300)
            .map(|k| format!("({k}, '{:b}', '{}')", k + 8, "w".repeat(200)))
            .collect();
        db.execute(&format!("INSERT INTO S VALUES {}", rows.join(", ")))
            .unwrap();
        let long = "x".repeat(20_000); // an overflow chain
        db.execute(&format!("INSERT INTO S VALUES (-1, '10', '{long}')"))
            .unwrap();
        db.execute("CREATE SEQUENCE INDEX sx ON S (V)").unwrap();
        let writes = |db: &Database| {
            let snapshot = db.metrics_snapshot();
            snapshot.counter("buffer.dirty_writebacks").unwrap()
        };
        let before = writes(&db);
        db.checkpoint().unwrap();
        let pages = fs::metadata(dir.join(DATA_FILE)).unwrap().len() / PAGE_SIZE_U64;
        assert!(pages > 10, "{pages} pages");
        assert_eq!(writes(&db) - before, pages);
        db.close().unwrap();
        let _ = fs::remove_dir_all(&dir);
    }

    const PAGE_SIZE_U64: u64 = bdbms_storage::PAGE_SIZE as u64;

    use proptest::prelude::*;

    /// A genuine snapshot body (the bytes under the version/CRC frame),
    /// captured once from a real checkpoint so the mutation fuzz
    /// exercises the deep decoders, not just the framing.
    fn real_snapshot_body() -> &'static [u8] {
        use std::sync::OnceLock;
        static BODY: OnceLock<Vec<u8>> = OnceLock::new();
        BODY.get_or_init(|| {
            let dir =
                std::env::temp_dir().join(format!("bdbms-snapfuzz-{}.bdbms", std::process::id()));
            let _ = fs::remove_dir_all(&dir);
            let mut db = Database::create(&dir).unwrap();
            db.execute("CREATE TABLE Gene (GID TEXT, Len INT)").unwrap();
            db.execute("INSERT INTO Gene VALUES ('JW0080', 11), ('JW0081', 9)")
                .unwrap();
            db.execute("CREATE INDEX len_idx ON Gene (Len)").unwrap();
            db.execute("CREATE ANNOTATION TABLE Curation ON Gene")
                .unwrap();
            db.execute(
                "ADD ANNOTATION TO Gene.Curation VALUE '<A>x</A>' \
                 ON (SELECT G.GID FROM Gene G)",
            )
            .unwrap();
            db.close().unwrap();
            // pull the meta blob back off the image and strip its frame
            let pool = Arc::new(BufferPool::new(
                Box::new(FileStore::open(dir.join(DATA_FILE)).unwrap()),
                64,
            ));
            let meta_rid = pool.with_page(PageId(0), read_header).unwrap().unwrap();
            let blob = HeapFile::attach(pool.clone(), Vec::new())
                .get(meta_rid)
                .unwrap();
            drop(pool);
            let _ = fs::remove_dir_all(&dir);
            blob[16..].to_vec()
        })
    }

    fn frame_body(body: &[u8]) -> Vec<u8> {
        let mut blob = Vec::with_capacity(body.len() + 16);
        codec::put_u32(&mut blob, FORMAT_VERSION);
        codec::put_u32(&mut blob, crc32(body));
        codec::put_u64(&mut blob, body.len() as u64);
        blob.extend_from_slice(body);
        blob
    }

    fn decode_fresh(blob: &[u8]) -> Result<u64> {
        let pool = Arc::new(BufferPool::new(Box::new(MemStore::new()), 64));
        let mut db = Database::with_pool(pool.clone());
        decode_snapshot_mode(&mut db, blob, &pool, None)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// WAL payloads come off disk: arbitrary bytes must decode to
        /// `Err`, never panic or over-allocate.
        #[test]
        fn wal_record_decode_never_panics(
            bytes in prop::collection::vec(any::<u8>(), 0..96),
        ) {
            let _ = WalRecord::decode(&bytes);
        }

        /// Single-byte mutations of every record variant: decode may
        /// succeed (the flip hit a don't-care byte) or fail, but never
        /// panic.
        #[test]
        fn mutated_wal_records_never_panic(pos_seed in any::<u64>(), flip in 1u8..=255) {
            for rec in sample_records() {
                let mut buf = Vec::new();
                rec.encode(&mut buf);
                let pos = (pos_seed % buf.len() as u64) as usize;
                buf[pos] ^= flip;
                let _ = WalRecord::decode(&buf);
            }
        }

        /// Framed garbage with a *valid* CRC (so the fuzz reaches the
        /// field decoders rather than dying at the checksum gate) must
        /// surface `Err`, never panic.
        #[test]
        fn snapshot_decode_never_panics(
            body in prop::collection::vec(any::<u8>(), 0..256),
        ) {
            let _ = decode_fresh(&frame_body(&body));
        }

        /// Single-byte mutations of a real checkpoint body, re-framed
        /// with a matching CRC: every deep decoder (tables, catalog
        /// tables, bitmaps, annotation sets) must
        /// reject or tolerate the damage without panicking.
        #[test]
        fn mutated_real_snapshot_never_panics(pos_seed in any::<u64>(), flip in 1u8..=255) {
            let mut body = real_snapshot_body().to_vec();
            let pos = (pos_seed % body.len() as u64) as usize;
            body[pos] ^= flip;
            let _ = decode_fresh(&frame_body(&body));
        }
    }
}
