//! Pins what a SELECT allocates per answer row.
//!
//! A batch is three arenas, the heap decodes straight into them and the
//! projection moves bare columns out, so a `SELECT PID …` answer row
//! costs what the `AnnRow` handed to the client is made of: the `String`,
//! `AnnRow::values` and `AnnRow::anns`.  With a heap object per tuple
//! inside the batch (as before the flat layout) the same statements
//! allocate about seven times per row, and this test fails.
//!
//! A scan decodes a row's TEXT only once the row has survived its
//! filter, so a selective filter costs per *answer* row too: decoding
//! `PID` for every scanned row, kept or not, fails the range statement
//! here (about ten allocations per answer row at 10 % selectivity).
//!
//! A GROUP BY allocates per group, not per input row: the statement
//! below folds `ROWS` rows into 20 groups, and a key built afresh for
//! every row (as before the aggregator reused one key buffer) costs one
//! allocation per row and fails it.
//!
//! One test function only: the counter is per thread, and the statement
//! runs on the thread that reads it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bdbms_core::Database;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: defers to `System` unchanged; the counter is a `const`-
// initialized thread-local `Cell` without a destructor, so touching it
// neither allocates nor outlives the thread.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const ROWS: usize = 2_000;
/// Per answer row: the decoded `String`, `AnnRow::values`,
/// `AnnRow::anns` — and half an allocation of slack.
const PER_ROW: f64 = 3.5;
/// Everything that does not grow with the answer: lexing, parsing,
/// planning, the index probe's working set, per-batch arenas.
const PER_STATEMENT: u64 = 600;

#[test]
fn a_select_allocates_three_times_per_answer_row() {
    let mut db = Database::new_in_memory();
    db.execute("CREATE TABLE Prot (PID TEXT, SS TEXT, N INT)")
        .unwrap();
    let tuples: Vec<String> = (0..ROWS)
        .map(|r| {
            // nine rows in ten hold the two-run pattern `HHHEEE`
            let ss = if r % 10 == 9 {
                "LLLLLLHHHLLLLLLEEELLLLLL".repeat(4)
            } else {
                format!(
                    "{}HHHHEEEE{}",
                    "L".repeat(1 + r % 17),
                    "LLLHHLLLEEL".repeat(6)
                )
            };
            format!("('P{r:07}', '{ss}', {r})")
        })
        .collect();
    db.execute(&format!("INSERT INTO Prot VALUES {}", tuples.join(", ")))
        .unwrap();
    db.execute("CREATE SEQUENCE INDEX prot_ss ON Prot (SS) USING SBC")
        .unwrap();
    db.execute("CREATE TABLE Grp (G INT, V INT)").unwrap();
    let tuples: Vec<String> = (0..ROWS).map(|r| format!("({}, {r})", r % 20)).collect();
    db.execute(&format!("INSERT INTO Grp VALUES {}", tuples.join(", ")))
        .unwrap();

    for (sql, at_least) in [
        (
            "SELECT PID FROM Prot WHERE SS CONTAINS SEQ 'HHHEEE'",
            ROWS * 8 / 10,
        ),
        ("SELECT PID FROM Prot", ROWS),
        // a full scan, 10 % selective on an unindexed INT
        (
            "SELECT PID FROM Prot WHERE N >= 1000 AND N < 1200",
            ROWS / 10,
        ),
        // ROWS rows into 20 groups: the budget is per group
        ("SELECT G, COUNT(*), SUM(V) FROM Grp GROUP BY G", 20),
    ] {
        db.execute(sql).unwrap(); // warm
        let before = ALLOCATIONS.with(Cell::get);
        let result = db.execute(sql).unwrap();
        let allocated = ALLOCATIONS.with(Cell::get) - before;
        let rows = result.rows.len();
        assert!(rows >= at_least, "{sql}: only {rows} rows");
        let budget = (PER_ROW * rows as f64) as u64 + PER_STATEMENT;
        assert!(
            allocated <= budget,
            "{sql}: {allocated} allocations for {rows} rows ({:.2} per row), budget {budget}",
            allocated as f64 / rows as f64
        );
        println!("{sql}: {allocated} allocations, {rows} rows");
    }
}
